"""Behavior tests for channel delivery semantics.

These pin the delivery rules of the cell-indexed receiver lookup: unicast
vs promiscuous overhearing, the asymmetric ``link_range`` override,
obstruction predicates, link-loss hooks, delivery ordering, and the
membership bookkeeping.

Every scenario runs twice.  ``grid`` (a name kept so test ids stay
stable) runs the channel as it is; ``scan`` runs it with every receiver set and neighbor query checked against
:func:`reference_receivers` / :func:`reference_neighbors` — a brute-force
linear scan over all registered interfaces that lives here, in the tests,
as the reference model of the unit-disk rule.  A hypothesis property
checks the same reference over random layouts, with some interfaces on
fleet member slots and the rest on static slots the channel claims.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.geo.position import Position
from repro.radio.channel import BroadcastChannel, RadioInterface
from repro.radio.frames import FrameKind
from repro.radio.shadowing import ManhattanShadowing
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.radio.test_shadowing import reference_blocks


# ----------------------------------------------------------------------
# brute-force reference model
# ----------------------------------------------------------------------
def reference_receivers(interfaces, frame, sender, is_blocked):
    """Who hears ``frame``, by checking every interface in turn.

    ``interfaces`` is in registration order; ``is_blocked(tx_position,
    iface)`` is the obstruction check.  An interface hears the frame iff it
    is not the sender, lies within the frame's range (or within its own
    ``link_range`` override, which replaces the frame's range), is the
    addressee or promiscuous for a unicast, and the link is not blocked.
    """
    tx = frame.tx_position
    out = []
    for iface in interfaces:
        if iface is sender:
            continue
        pos = iface.get_position()
        reach = frame.tx_range if iface.link_range is None else iface.link_range
        dx = pos.x - tx.x
        dy = pos.y - tx.y
        if dx * dx + dy * dy > reach * reach:
            continue
        if (
            frame.dest_addr is not None
            and iface.address != frame.dest_addr
            and not iface.promiscuous
        ):
            continue
        if is_blocked(tx, iface):
            continue
        out.append(iface)
    return out


def reference_neighbors(interfaces, position, radius):
    """Interfaces within ``radius`` of ``position``, by brute force."""
    out = []
    for iface in interfaces:
        pos = iface.get_position()
        dx = pos.x - position.x
        dy = pos.y - position.y
        if dx * dx + dy * dy <= radius * radius:
            out.append(iface)
    return out


def check_against_reference(channel):
    """Assert every receiver set and neighbor query of ``channel`` equals
    the brute-force reference, for as long as the channel lives."""
    receivers_for = channel._receivers_for
    neighbors_within = channel.neighbors_within

    def checked_receivers(frame, sender):
        got = receivers_for(frame, sender)
        want = reference_receivers(
            channel.interfaces, frame, sender, channel.is_link_blocked
        )
        assert got == want
        return got

    def checked_neighbors(position, radius):
        got = neighbors_within(position, radius)
        assert got == reference_neighbors(channel.interfaces, position, radius)
        return got

    channel._receivers_for = checked_receivers
    channel.neighbors_within = checked_neighbors


@pytest.fixture(params=["grid", "scan"])
def mode(request):
    return request.param


def make_channel(mode, **kwargs):
    sim = Simulator()
    channel = BroadcastChannel(sim, RandomStreams(1), **kwargs)
    if mode == "scan":
        check_against_reference(channel)
    return sim, channel


def make_lossy(sim, channel, loss_rate):
    """Install the fault layer's i.i.d. link loss on ``channel``."""
    FaultInjector(
        FaultPlan.lossy(loss_rate),
        sim=sim,
        streams=RandomStreams(1),
        channel=channel,
    )


def make_iface(channel, x, y=0.0, tx_range=100.0, **kwargs):
    iface = RadioInterface(lambda: Position(x, y), tx_range, **kwargs)
    received = []
    iface.attach(received.append)
    channel.register(iface)
    return iface, received


# ----------------------------------------------------------------------
# unicast vs promiscuous overhearing
# ----------------------------------------------------------------------
def test_unicast_reaches_addressee_only(mode):
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0)
    target, target_rx = make_iface(channel, 50)
    _other, other_rx = make_iface(channel, 60)
    sender.send(FrameKind.GEO_UNICAST, "p", dest_addr=target.address)
    sim.run_until(1.0)
    assert [f.payload for f in target_rx] == ["p"]
    assert other_rx == []


def test_promiscuous_overhears_unicast_but_range_still_applies(mode):
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0)
    target, target_rx = make_iface(channel, 50)
    _near_sniffer, near_sniffed = make_iface(channel, 20, promiscuous=True)
    _far_sniffer, far_sniffed = make_iface(channel, 150, promiscuous=True)
    sender.send(FrameKind.GEO_UNICAST, "secret", dest_addr=target.address)
    sim.run_until(1.0)
    assert len(target_rx) == 1
    assert [f.payload for f in near_sniffed] == ["secret"]
    assert far_sniffed == []  # promiscuity is not extra range


def test_unicast_to_out_of_range_target_counted_lost(mode):
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0, tx_range=100.0)
    _target, target_rx = make_iface(channel, 200)
    sender.send(FrameKind.GEO_UNICAST, "p", dest_addr=_target.address)
    sim.run_until(1.0)
    assert target_rx == []
    assert channel.stats.unicast_lost == 1


# ----------------------------------------------------------------------
# link_range override asymmetry
# ----------------------------------------------------------------------
def test_mast_override_extends_reception_beyond_sender_range(mode):
    """A mast hears a weak sender far beyond the sender's tx range —
    the lookup must find it outside the frame's own search radius."""
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0, tx_range=100.0)
    _mast, mast_rx = make_iface(channel, 800, link_range=1000.0)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert len(mast_rx) == 1


def test_weak_override_limits_reception_below_sender_range(mode):
    """The worst-NLoS attacker's short link applies toward it too."""
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0, tx_range=486.0)
    _weak, weak_rx = make_iface(channel, 400, link_range=327.0)
    _vehicle, vehicle_rx = make_iface(channel, 400, tx_range=486.0)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert weak_rx == []  # 400 > 327: override blocks
    assert len(vehicle_rx) == 1  # plain vehicle at same spot hears it


def test_override_applies_per_receiver_not_globally(mode):
    """One mast must not widen anyone else's ears."""
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0, tx_range=100.0)
    _mast, mast_rx = make_iface(channel, 900, link_range=1000.0)
    _vehicle, vehicle_rx = make_iface(channel, 150, tx_range=100.0)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert len(mast_rx) == 1
    assert vehicle_rx == []  # 150 > 100 and no override of its own


def test_unregistering_mast_restores_narrow_search(mode):
    """An unregistered mast leaves the long-eared list, so no frame tests
    it any more; the masts still registered keep their own reach."""
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0, tx_range=100.0)
    mast, mast_rx = make_iface(channel, 800, link_range=1000.0)
    small_mast, small_rx = make_iface(channel, 300, link_range=400.0)
    assert channel.long_eared == [mast, small_mast]
    channel.unregister(mast)
    assert channel.long_eared == [small_mast]
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert mast_rx == []
    assert len(small_rx) == 1  # the smaller override still works
    # The probe covers the frame's own 100 m only: the sender alone.
    assert channel.stats.receiver_candidates == 1
    channel.register(mast)
    assert channel.long_eared == [small_mast, mast]  # registration order


# ----------------------------------------------------------------------
# obstruction predicates
# ----------------------------------------------------------------------
def test_obstruction_blocks_link_both_modes(mode):
    sim, channel = make_channel(mode)
    channel.add_obstruction(lambda a, b: (a.x - 50) * (b.x - 50) < 0)
    sender, _ = make_iface(channel, 0)
    _blocked, blocked_rx = make_iface(channel, 80)
    _same_side, same_rx = make_iface(channel, 40)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert blocked_rx == []
    assert len(same_rx) == 1


def test_any_of_multiple_obstructions_blocks(mode):
    sim, channel = make_channel(mode)
    channel.add_obstruction(lambda a, b: False)
    channel.add_obstruction(lambda a, b: abs(a.x - b.x) > 30)
    sender, _ = make_iface(channel, 0)
    _near, near_rx = make_iface(channel, 20)
    _far, far_rx = make_iface(channel, 40)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert len(near_rx) == 1
    assert far_rx == []


# ----------------------------------------------------------------------
# link loss (the fault layer's hook)
# ----------------------------------------------------------------------
def test_loss_rate_fades_some_deliveries(mode):
    sim, channel = make_channel(mode)
    make_lossy(sim, channel, 0.5)
    sender, _ = make_iface(channel, 0)
    receivers = [make_iface(channel, 10 + i)[1] for i in range(40)]
    for _ in range(5):
        sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    delivered = sum(len(rx) for rx in receivers)
    dropped = channel.stats.frames_fault_dropped
    assert dropped > 0
    assert delivered + dropped == 200
    assert 0 < delivered < 200  # some lost, some through


def test_loss_draws_are_deterministic_across_modes():
    """Same seed ⇒ the exact same frames are lost in both modes: the
    reference check draws nothing."""
    outcomes = []
    for mode in ("grid", "scan"):
        sim, channel = make_channel(mode)
        make_lossy(sim, channel, 0.3)
        sender, _ = make_iface(channel, 0)
        receivers = [make_iface(channel, 5 * (i + 1))[1] for i in range(15)]
        for _ in range(10):
            sender.send(FrameKind.BEACON, "x")
        sim.run_until(1.0)
        outcomes.append(
            (channel.stats.frames_fault_dropped, [len(rx) for rx in receivers])
        )
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# ordering and membership bookkeeping
# ----------------------------------------------------------------------
def test_delivery_order_is_registration_order(mode):
    """With zero jitter all deliveries share a timestamp, so the engine
    fires them in scheduling order — which must be registration order."""
    sim, channel = make_channel(mode, latency_jitter=0.0)
    sender, _ = make_iface(channel, 0)
    order = []
    ifaces = []
    # Register across several cells, deliberately not sorted by x.
    for label, x in (("d", 90.0), ("a", 10.0), ("c", 70.0), ("b", 40.0)):
        iface = RadioInterface(lambda x=x: Position(x, 0.0), 100.0)
        iface.attach(lambda f, label=label: order.append(label))
        channel.register(iface)
        ifaces.append(iface)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert order == ["d", "a", "c", "b"]


def test_delivery_order_survives_swap_remove(mode):
    """unregister() frees b's static slot and e reuses it, so slot order
    is no longer registration order; delivery order must still be."""
    sim, channel = make_channel(mode, latency_jitter=0.0)
    sender, _ = make_iface(channel, 0)
    order = []

    def reg(label, x):
        iface = RadioInterface(lambda: Position(x, 0.0), 100.0)
        iface.attach(lambda f, label=label: order.append(label))
        channel.register(iface)
        return iface

    a, b, c, d = reg("a", 10), reg("b", 20), reg("c", 30), reg("d", 40)
    channel.unregister(b)
    e = reg("e", 50)
    assert e.slot < d.slot
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert order == ["a", "c", "d", "e"]


def test_interfaces_property_in_registration_order(mode):
    _sim, channel = make_channel(mode)
    a, _ = make_iface(channel, 0)
    b, _ = make_iface(channel, 10)
    c, _ = make_iface(channel, 20)
    channel.unregister(a)
    assert channel.interfaces == (b, c)
    d, _ = make_iface(channel, 30)
    assert channel.interfaces == (b, c, d)


def test_reregistration_after_unregister(mode):
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0)
    iface, received = make_iface(channel, 10)
    channel.unregister(iface)
    channel.register(iface)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert len(received) == 1


def test_unregister_twice_is_noop(mode):
    _sim, channel = make_channel(mode)
    iface, _ = make_iface(channel, 0)
    channel.unregister(iface)
    channel.unregister(iface)  # must not raise
    assert len(channel.interfaces) == 0


# ----------------------------------------------------------------------
# cell-index mechanics
# ----------------------------------------------------------------------
def test_moving_interface_is_retracked_after_invalidation(mode):
    """Moving a static slot bumps the fleet's version, so the cell index
    is rebuilt and the radio is found in its new cell."""
    sim, channel = make_channel(mode)
    pos = {"x": 0.0}
    mover = RadioInterface(lambda: Position(pos["x"], 0.0), 100.0)
    mover_rx = []
    mover.attach(mover_rx.append)
    channel.register(mover)
    sender, _ = make_iface(channel, 3000.0, tx_range=100.0)
    sender.send(FrameKind.BEACON, "one")
    sim.run_until(0.01)
    assert mover_rx == []
    # Cross many cells in one hop, as a teleporting test double would.
    pos["x"] = 2950.0
    channel.fleet.move(mover.slot, 2950.0, 0.0)
    sender.send(FrameKind.BEACON, "two")
    sim.run_until(0.02)
    assert [f.payload for f in mover_rx] == ["two"]


def test_per_frame_tx_range_beyond_cell_size(mode):
    """A frame's tx_range may exceed the cell size (here the radios' 100 m
    range); probing every cell column the search disc spans keeps the
    result exact."""
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0, tx_range=100.0)
    _far, far_rx = make_iface(channel, 1500.0)
    _beyond, beyond_rx = make_iface(channel, 2500.0)
    sender.send(FrameKind.BEACON, "boost", tx_range=2000.0)
    sim.run_until(1.0)
    assert len(far_rx) == 1
    assert beyond_rx == []


def test_neighbors_within_matches_geometry(mode):
    _sim, channel = make_channel(mode)
    ifaces = [make_iface(channel, 100.0 * i)[0] for i in range(10)]
    got = channel.neighbors_within(Position(450.0, 0.0), 160.0)
    assert got == [ifaces[3], ifaces[4], ifaces[5], ifaces[6]]


def test_neighbors_within_ignores_link_overrides(mode):
    """neighbors_within is a pure geometric query: a mast's link_range
    must not inflate its distance-based membership."""
    _sim, channel = make_channel(mode)
    make_iface(channel, 0)
    mast, _ = make_iface(channel, 500.0, link_range=5000.0)
    got = channel.neighbors_within(Position(0.0, 0.0), 100.0)
    assert mast not in got
    assert len(got) == 1


def test_stats_candidate_counter_advances(mode):
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0)
    make_iface(channel, 10)
    make_iface(channel, 20)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert channel.stats.frames_sent == 1
    assert channel.stats.receiver_candidates >= 2
    assert channel.stats.mean_receivers_per_frame == 2.0


# ----------------------------------------------------------------------
# carrier sense (heap-based active transmission tracking)
# ----------------------------------------------------------------------
def test_medium_busy_during_and_idle_after_transmission(mode):
    sim, channel = make_channel(mode)
    sender, _ = make_iface(channel, 0)
    sender.send(FrameKind.BEACON, "x")
    assert channel.medium_busy(Position(50.0, 0.0))
    assert not channel.medium_busy(Position(5000.0, 0.0))  # out of range
    sim.run_until(1.0)  # well past the 0.5 ms airtime
    assert not channel.medium_busy(Position(50.0, 0.0))


def test_medium_busy_expires_staggered_transmissions_in_order(mode):
    sim, channel = make_channel(mode)
    a, _ = make_iface(channel, 0)
    b, _ = make_iface(channel, 10)
    # Two staggered transmissions; the heap must expire them independently.
    a.send(FrameKind.BEACON, "x")
    sim.run_until(0.0003)
    b.send(FrameKind.BEACON, "y")
    assert channel.medium_busy(Position(5.0, 0.0))
    sim.run_until(0.0006)  # a's airtime over, b's still active
    assert channel.medium_busy(Position(5.0, 0.0))
    sim.run_until(0.01)
    assert not channel.medium_busy(Position(5.0, 0.0))
    assert channel._active_tx == []  # heap fully drained


# ----------------------------------------------------------------------
# the cell index against the brute-force reference, over random layouts
# ----------------------------------------------------------------------
_coord = st.floats(0.0, 1200.0, allow_nan=False)
_iface_spec = st.tuples(
    _coord,
    _coord,
    st.floats(10.0, 400.0),  # tx_range
    # link_range override: below and above the frame ranges, and past the
    # cell size (the largest member tx_range, at most 400 m).
    st.one_of(st.none(), st.floats(1.0, 1700.0)),
    st.booleans(),  # promiscuous
    st.booleans(),  # fleet member: it holds a slot of its own
)


def _slot_position(fleet, slot):
    """A fleet member's ``get_position``: it reads the member's slot."""
    return lambda: Position(fleet.x.item(slot), fleet.y.item(slot))


def _wall(x0):
    """An obstruction: a vertical wall at ``x = x0`` blocks crossing links."""
    return lambda a, b: (a.x - x0) * (b.x - x0) < 0


def _pairwise(model):
    """``model``'s rule as a plain predicate, by the pairwise reference."""
    return lambda a, b: bool(reference_blocks(model, [a.x], [a.y], [b.x], [b.y])[0])


@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(_iface_spec, min_size=1, max_size=25),
    walls=st.lists(_coord, max_size=2),
    # Street grid over the layout: (block, half_width, corner_clearance).
    streets=st.one_of(
        st.none(),
        st.tuples(
            st.floats(150.0, 600.0), st.floats(5.0, 60.0), st.floats(0.0, 70.0)
        ),
    ),
    removed=st.sets(st.integers(0, 24), max_size=5),
    frames=st.lists(
        st.tuples(
            st.integers(0, 24),  # sender index
            st.one_of(st.none(), st.floats(1.0, 1500.0)),  # per-frame range
            st.one_of(st.none(), st.integers(0, 24)),  # addressee index
            st.floats(-50.0, 50.0),  # fleet drift after the frame
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_receivers_match_brute_force_reference(
    specs, walls, streets, removed, frames
):
    sim = Simulator()
    channel = BroadcastChannel(sim, RandomStreams(1), latency_jitter=0.0)
    obstructions = [_wall(x0) for x0 in walls]
    for blocks in obstructions:
        channel.add_obstruction(blocks)
    if streets is not None:
        # A blocks_many predicate: the channel masks every frame's
        # receivers in one call; the reference asks the pairwise rule.
        block, half_width, clearance = streets
        model = ManhattanShadowing.for_grid(
            4, 4, block, half_width=half_width, corner_clearance=clearance
        )
        channel.add_obstruction(model)
        obstructions.append(_pairwise(model))
    fleet = channel.fleet
    ifaces = []
    log = []
    for x, y, tx_range, link_range, promiscuous, in_fleet in specs:
        slot = fleet.add(x=x, y=y) if in_fleet else None
        iface = RadioInterface(
            _slot_position(fleet, slot) if in_fleet else (lambda p=Position(x, y): p),
            tx_range,
            link_range=link_range,
            promiscuous=promiscuous,
            slot=slot,
        )
        iface.attach(lambda frame, iface=iface: log.append((iface, frame)))
        channel.register(iface)
        if in_fleet:
            fleet.attach(slot, iface, tx_range)
        ifaces.append(iface)
    # Unregistering frees a static slot; the reference still walks
    # registration order.  An unregistered fleet member keeps its live
    # slot, like a radio powered off mid-outage.
    for k in sorted(removed):
        if k < len(ifaces):
            channel.unregister(ifaces[k])
    live = [iface for iface in ifaces if iface.channel is channel]
    assert list(channel.interfaces) == live
    if not live:
        return

    def is_blocked(tx, iface):
        rx = iface.get_position()
        return any(blocks(tx, rx) for blocks in obstructions)

    for s_idx, tx_range, dest_idx, drift in frames:
        sender = live[s_idx % len(live)]
        dest = None if dest_idx is None else ifaces[dest_idx % len(ifaces)].address
        frame = sender.send(
            FrameKind.BEACON, "x", dest_addr=dest, tx_range=tx_range
        )
        want = reference_receivers(live, frame, sender, is_blocked)
        assert channel._receivers_for(frame, sender) == want
        sim.run_until(sim.now + 1.0)
        assert [iface for iface, f in log if f is frame] == want
        radius = frame.tx_range
        assert channel.neighbors_within(
            frame.tx_position, radius
        ) == reference_neighbors(live, frame.tx_position, radius)
        # Fleet members move with no call into the channel, as the
        # traffic step moves them: in place, then one version bump.
        members = fleet.batch_slots()
        fleet.x[members] += drift
        fleet.moved()
    assert channel.stats.frames_sent == len(frames)
