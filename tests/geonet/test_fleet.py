"""Unit tests for the struct-of-arrays fleet and the batched beacon tick."""

import random

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.geo.position import Position
from repro.geonet.fleet import FleetBeaconScheduler, FleetState
from repro.radio.channel import BroadcastChannel, RadioInterface
from repro.radio.frames import Frame, FrameKind
from repro.radio.shadowing import ManhattanShadowing
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class Member:
    """A minimal fleet member: an interface plus a reception log.

    ``active`` and ``muted`` drive the scheduler's member methods the way
    a GeoNode's power state and DCC gate do.
    """

    def __init__(self, iface):
        self.iface = iface
        self.received = []
        self.active = True
        self.muted = False

    def beacon_active(self):
        return self.active

    def make_beacon(self, pv, now):
        if self.muted:
            return None
        return (self.iface.address, pv), b"beacon", None

    def hear_beacons(self, batch, now):
        self.received.extend(batch)
        return len(batch)


def add_member(channel, fleet, x, y, tx_range=150.0):
    """A fleet member whose position lives only in its slot."""
    slot = fleet.add(x=x, y=y)
    iface = RadioInterface(
        lambda: Position(fleet.x.item(slot), fleet.y.item(slot)),
        tx_range,
        slot=slot,
    )
    channel.register(iface)
    member = Member(iface)
    member.slot = slot
    fleet.attach(slot, member, tx_range)
    return member


def build_fleet(positions, tx_range=150.0, *, seed=1):
    sim = Simulator()
    channel = BroadcastChannel(sim, RandomStreams(seed))
    fleet = channel.fleet
    members = [add_member(channel, fleet, x, y, tx_range) for x, y in positions]
    return sim, channel, fleet, members


def make_scheduler(sim, fleet, channel, *, rng_seed=7, **kwargs):
    kwargs.setdefault("period", 3.0)
    kwargs.setdefault("jitter", 0.75)
    kwargs.setdefault("tick", 0.1)
    return FleetBeaconScheduler(
        sim, fleet, channel, np.random.default_rng(rng_seed), **kwargs
    )


# ----------------------------------------------------------------------
# FleetState slots
# ----------------------------------------------------------------------
def test_slots_are_stable_and_recycled():
    sim, channel, fleet, members = build_fleet([(0, 0), (50, 0), (100, 0)])
    slots = [m.slot for m in members]
    assert len(set(slots)) == 3
    assert len(fleet) == 3
    fleet.remove(members[1].slot)
    assert len(fleet) == 2
    assert not fleet.alive[members[1].slot]
    # The freed slot is handed out again before any new one.
    assert add_member(channel, fleet, 200.0, 0.0).slot == members[1].slot


def test_capacity_grows_transparently():
    fleet = FleetState(capacity=4)
    slots = [fleet.add(x=float(k * 10)) for k in range(20)]
    assert len(fleet) == 20
    assert fleet.capacity >= 20
    assert sorted(fleet.live_slots().tolist()) == sorted(slots) == list(range(20))
    assert [fleet.x.item(slot) for slot in slots] == [k * 10.0 for k in range(20)]


def test_remove_dead_slot_raises():
    sim, channel, fleet, members = build_fleet([(0, 0)])
    fleet.remove(members[0].slot)
    with pytest.raises(ValueError):
        fleet.remove(members[0].slot)


def test_fleet_membership_tracked_on_channel():
    """Members take tick batches; a radio registered without a slot gets a
    static real-frame slot, freed again when it leaves the channel."""
    sim, channel, fleet, members = build_fleet([(0, 0), (50, 0)])
    assert fleet.batch_slots().tolist() == [m.slot for m in members]
    assert fleet.frame_slots().size == 0
    mast = RadioInterface(lambda: Position(25.0, 5.0), 10.0)
    channel.register(mast)
    assert fleet.frame_slots().tolist() == [mast.slot]
    assert fleet.ifaces[mast.slot] is mast
    assert (fleet.x[mast.slot], fleet.y[mast.slot]) == (25.0, 5.0)
    slot = mast.slot
    channel.unregister(mast)
    assert mast.slot is None
    assert not fleet.alive[slot]
    assert fleet.frame_slots().size == 0


# ----------------------------------------------------------------------
# neighbor sweep
# ----------------------------------------------------------------------
def test_neighbor_pairs_matches_brute_force():
    rng = random.Random(13)
    positions = [
        (rng.uniform(-500, 500), rng.uniform(-500, 500)) for _ in range(120)
    ]
    sim, channel, fleet, members = build_fleet(positions)
    # Heterogeneous ranges exercise the per-sender radius masking.
    for m in members:
        fleet.tx_range[m.slot] = rng.uniform(60.0, 220.0)
    senders = fleet.live_slots()[::3]
    sidx, rslots, candidates = fleet.neighbor_pairs(senders)
    got = {
        (int(senders[i]), int(r)) for i, r in zip(sidx.tolist(), rslots.tolist())
    }
    want = set()
    for s in senders.tolist():
        r_sq = fleet.tx_range[s] ** 2
        for other in fleet.live_slots().tolist():
            if other == s:
                continue
            d_sq = (fleet.x[other] - fleet.x[s]) ** 2 + (
                fleet.y[other] - fleet.y[s]
            ) ** 2
            if d_sq <= r_sq:
                want.add((s, other))
    assert got == want
    assert candidates >= len(want)

    # The tick's obstruction filter: the vectorised mask over the swept
    # pairs must keep exactly the pairs the scalar predicate lets through.
    streets = (-500.0, -250.0, 0.0, 250.0, 500.0)
    shadowing = ManhattanShadowing(
        street_xs=streets, street_ys=streets, half_width=60.0, corner_clearance=80.0
    )
    channel.add_obstruction(shadowing)
    tx = senders[sidx]
    blocked = channel.block_mask(fleet.x, fleet.y, tx, rslots)
    got_clear = {
        (int(s), int(r))
        for s, r, b in zip(tx.tolist(), rslots.tolist(), blocked.tolist())
        if not b
    }
    want_clear = {
        (s, r)
        for s, r in want
        if not shadowing(
            Position(fleet.x[s], fleet.y[s]), Position(fleet.x[r], fleet.y[r])
        )
    }
    assert got_clear == want_clear
    assert 0 < len(want_clear) < len(want)


def test_neighbor_pairs_empty_inputs():
    sim, channel, fleet, members = build_fleet([(0, 0)])
    sidx, rslots, candidates = fleet.neighbor_pairs(np.empty(0, dtype=np.intp))
    assert sidx.size == 0 and rslots.size == 0 and candidates == 0


# ----------------------------------------------------------------------
# the batched beacon tick
# ----------------------------------------------------------------------
def test_every_member_beacons_about_once_per_period():
    positions = [(float(i * 40), 0.0) for i in range(10)]
    sim, channel, fleet, members = build_fleet(positions)
    scheduler = make_scheduler(sim, fleet, channel)
    sim.run_until(15.0)
    counts = fleet.beacons_sent[fleet.live_slots()]
    # 15 s at a 3 s period with <= 0.75 s jitter: 4 or 5 beacons each.
    assert counts.min() >= 3
    assert counts.max() <= 6
    assert scheduler.beacons_sent == int(counts.sum())
    assert channel.stats.frames_sent == scheduler.beacons_sent


def test_first_beacons_are_staggered_within_one_period():
    positions = [(float(i * 40), 0.0) for i in range(30)]
    sim, channel, fleet, members = build_fleet(positions)
    make_scheduler(sim, fleet, channel)
    sim.run_until(3.5)
    counts = fleet.beacons_sent[fleet.live_slots()]
    # Everyone beacons within the first period (staggered start), nobody
    # twice before their second deadline could possibly arrive.
    assert counts.min() >= 1
    assert counts.max() <= 2


def test_fleet_receivers_get_entries_in_range_only():
    # 0 -- 100 -- 1000: the far member is out of the 150 m range.
    sim, channel, fleet, members = build_fleet([(0, 0), (100, 0), (1000, 0)])
    make_scheduler(sim, fleet, channel)
    sim.run_until(4.0)
    near_a, near_b, far = members
    a_from = {addr for addr, _pv in near_a.received}
    b_from = {addr for addr, _pv in near_b.received}
    assert a_from == {near_b.iface.address}
    assert b_from == {near_a.iface.address}
    assert far.received == []
    # PVs carry the sender's true position.
    for addr, pv in near_a.received:
        assert pv.position == Position(100.0, 0.0)


def test_nonfleet_interface_receives_real_frames():
    sim, channel, fleet, members = build_fleet([(0, 0), (100, 0)])
    sniffed = []
    mast = RadioInterface(
        lambda: Position(50.0, -10.0), 10.0, link_range=400.0, promiscuous=True
    )
    mast.attach(sniffed.append)
    channel.register(mast)
    make_scheduler(sim, fleet, channel)
    sim.run_until(4.0)
    assert sniffed
    frame = sniffed[0]
    assert isinstance(frame, Frame)
    assert frame.kind is FrameKind.BEACON
    assert frame.payload == b"beacon"
    assert frame.sender_addr in {m.iface.address for m in members}
    assert frame.tx_range == 150.0
    # Deliveries to the mast are counted like any other reception.
    assert channel.stats.frames_delivered >= len(sniffed)


def test_inactive_member_skips_cycles_without_burst():
    sim, channel, fleet, members = build_fleet([(0, 0), (100, 0)])
    make_scheduler(sim, fleet, channel)
    members[0].active = False
    sim.run_until(9.0)
    assert fleet.beacons_sent[members[0].slot] == 0
    members[0].active = True
    sim.run_until(15.0)
    # Reactivated: beacons resume at the normal cadence, no catch-up burst
    # for the cycles missed while down.
    assert 1 <= fleet.beacons_sent[members[0].slot] <= 3


def test_loss_rate_fades_fleet_deliveries():
    positions = [(float(i * 30), 0.0) for i in range(20)]
    sim_ideal, ch_ideal, fleet_ideal, members_ideal = build_fleet(positions)
    make_scheduler(sim_ideal, fleet_ideal, ch_ideal)
    sim_ideal.run_until(10.0)
    ideal = sum(len(m.received) for m in members_ideal)

    sim, channel, fleet, members = build_fleet(positions)
    FaultInjector(
        FaultPlan.lossy(0.5), sim=sim, streams=RandomStreams(1), channel=channel
    )
    make_scheduler(sim, fleet, channel)
    sim.run_until(10.0)
    lossy = sum(len(m.received) for m in members)
    assert channel.stats.frames_fault_dropped > 0
    assert lossy < ideal
    assert channel.stats.frames_delivered == lossy


def test_blocked_links_never_reach_the_link_fault_hook():
    """Obstructions drop a link before the fault layer sees it, for fleet
    receivers and for real-frame (non-fleet) receivers alike: a blocked
    link spends no fault-RNG draw and never counts as a fault drop."""
    sim, channel, fleet, members = build_fleet([(0, 0), (100, 0)])
    sniffed = []
    mast = RadioInterface(
        lambda: Position(50.0, -10.0), 10.0, link_range=400.0, promiscuous=True
    )
    mast.attach(sniffed.append)
    channel.register(mast)
    channel.add_obstruction(lambda a, b: True)
    hook_calls = []

    def link_fault(sender_addr, receiver_addr):
        hook_calls.append(receiver_addr)
        return False

    channel.link_fault = link_fault
    scheduler = make_scheduler(sim, fleet, channel)
    sim.run_until(3.5)
    assert scheduler.beacons_sent >= 2
    assert hook_calls == []
    assert sniffed == []
    assert channel.stats.frames_delivered == 0


def test_make_beacon_returning_none_suppresses():
    sim, channel, fleet, members = build_fleet([(0, 0), (100, 0)])
    muted = members[0]
    muted.muted = True
    make_scheduler(sim, fleet, channel)
    sim.run_until(10.0)
    assert fleet.beacons_sent[muted.slot] == 0
    assert fleet.beacons_sent[members[1].slot] >= 2
    assert muted.received  # still receives neighbors' beacons


def test_beacon_tick_asserts_carrier_sense():
    sim, channel, fleet, members = build_fleet([(0, 0), (100, 0)])
    make_scheduler(sim, fleet, channel)
    busy_samples = []

    def probe():
        busy_samples.append(channel.medium_busy(Position(50.0, 0.0)))
        if sim.now < 10.0:
            # Immediately after each tick, within the in-flight window.
            sim.schedule(0.1, probe)

    # Probes run at priority 0 after the tick at the same timestamp plus
    # epsilon: schedule just after each tick boundary.
    sim.schedule(0.1000001, probe)
    sim.run_until(10.0)
    assert any(busy_samples)


def test_removed_member_stops_sending_and_receiving():
    sim, channel, fleet, members = build_fleet([(0, 0), (100, 0), (200, 0)])
    make_scheduler(sim, fleet, channel)
    sim.run_until(4.0)
    gone = members[1]
    fleet.remove(gone.slot)
    channel.unregister(gone.iface)
    sent_before = int(fleet.beacons_sent.sum())
    received_before = len(gone.received)
    sim.run_until(10.0)
    assert len(gone.received) == received_before
    # The survivors keep beaconing.
    assert int(fleet.beacons_sent.sum()) > sent_before
