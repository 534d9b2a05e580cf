"""The runtime invariant checker: passes on health, fails on corruption.

Every test here corrupts one specific piece of simulator state by hand and
asserts the checker names it — the checker's job is to turn silent
corruption into a loud, diagnosable crash.
"""

import dataclasses
import math
import random

import pytest

from repro.geo.areas import CircularArea
from repro.geo.position import Position
from repro.observability import PacketLedger, reasons
from repro.observability.invariants import InvariantChecker, InvariantViolation
from repro.sim.engine import Simulator
from repro.sim.events import FireOnce
from repro.traffic.road import RoadSegment
from repro.traffic.simulation import TrafficSimulation


def make_checker(tb, nodes=(), *, ledger=None):
    return InvariantChecker(
        tb.sim,
        iter_nodes=lambda: list(nodes),
        channel=tb.channel,
        ledger=ledger,
    )


# ----------------------------------------------------------------------
# healthy worlds pass
# ----------------------------------------------------------------------
def test_healthy_testbed_passes_and_counts_sweeps(testbed):
    ledger = PacketLedger()
    nodes = testbed.chain(3, 200.0, ledger=ledger)
    checker = make_checker(testbed, nodes, ledger=ledger)
    testbed.warm_up(8.0)
    checker.run()
    checker.run()
    assert checker.checks_run == 2
    assert checker.last_checked_at == testbed.sim.now


def test_shut_down_nodes_are_skipped(testbed):
    nodes = testbed.chain(2, 200.0)
    testbed.warm_up(5.0)
    nodes[1].shutdown()
    # a shut-down node's state is torn down; auditing it would misfire
    checker = make_checker(testbed, nodes)
    checker.run()
    assert checker.checks_run == 1


# ----------------------------------------------------------------------
# event queue
# ----------------------------------------------------------------------
def test_detects_past_due_event(testbed):
    testbed.warm_up(5.0)
    sim = testbed.sim
    sim._heap.append((sim.now - 5.0, 0, 10**9, FireOnce(lambda: None, ())))
    with pytest.raises(InvariantViolation, match="due in the past"):
        InvariantChecker(sim).run()


def test_detects_nan_time_event(testbed):
    testbed.warm_up(5.0)
    sim = testbed.sim
    sim._heap.append((float("nan"), 0, 10**9, FireOnce(lambda: None, ())))
    with pytest.raises(InvariantViolation, match="NaN-time"):
        InvariantChecker(sim).run()


def test_detects_duplicate_sequence_numbers(testbed):
    testbed.warm_up(5.0)
    sim = testbed.sim
    far = sim.now + 1000.0
    sim._heap.append((far, 0, 10**9, FireOnce(lambda: None, ())))
    sim._heap.append((far + 1.0, 0, 10**9, FireOnce(lambda: None, ())))
    with pytest.raises(InvariantViolation, match="duplicate sequence"):
        InvariantChecker(sim).run()


def test_detects_broken_heap_property(testbed):
    testbed.chain(2, 100.0)
    testbed.warm_up(5.0)
    sim = testbed.sim
    assert len(sim._heap) >= 1
    # an entry sorting before its parent: due now with an absurd priority
    sim._heap.append((sim.now, -(10**6), 10**9, FireOnce(lambda: None, ())))
    with pytest.raises(InvariantViolation, match="heap property"):
        InvariantChecker(sim).run()


# ----------------------------------------------------------------------
# location table
# ----------------------------------------------------------------------
def _neighbor_row(testbed):
    """A warmed-up two-node chain, and ``a``'s LocT with ``b``'s address."""
    a, b = testbed.chain(2, 100.0)
    testbed.warm_up(8.0)
    return a, a.router.loct._entries, b.address


def test_detects_loct_entry_updated_in_the_future(testbed):
    a, entries, addr = _neighbor_row(testbed)
    entries[addr] = (entries[addr][0], testbed.sim.now + 100.0)
    with pytest.raises(InvariantViolation, match="updated in the future"):
        make_checker(testbed, [a]).run()


def test_detects_loct_non_finite_position(testbed):
    a, entries, addr = _neighbor_row(testbed)
    pv, updated_at = entries[addr]
    entries[addr] = (
        dataclasses.replace(pv, position=Position(math.nan, 0.0)),
        updated_at,
    )
    with pytest.raises(InvariantViolation, match="non-finite position"):
        make_checker(testbed, [a]).run()


def test_detects_loct_position_outside_the_world(testbed):
    a, entries, addr = _neighbor_row(testbed)
    pv, updated_at = entries[addr]
    entries[addr] = (dataclasses.replace(pv, position=Position(1e9, 0.0)), updated_at)
    with pytest.raises(InvariantViolation, match="outside the plausible"):
        make_checker(testbed, [a]).run()


# ----------------------------------------------------------------------
# CBF buffers
# ----------------------------------------------------------------------
def _plant_buffer(testbed, node, *, forward_rhl=5, cancel=False):
    from repro.geonet.cbf import _BufferedPacket

    timer = testbed.sim.schedule(0.05, lambda: None)
    if cancel:
        timer.cancel()
    node.router.cbf._buffers[("fake", 1)] = _BufferedPacket(
        packet=None,
        first_rhl=5,
        forward_rhl=forward_rhl,
        timer=timer,
        buffered_at=testbed.sim.now,
    )


def test_detects_cbf_copy_with_exhausted_hop_budget(testbed):
    (node,) = testbed.chain(1, 100.0)
    testbed.warm_up(2.0)
    _plant_buffer(testbed, node, forward_rhl=0)
    with pytest.raises(InvariantViolation, match="exhausted hop budget"):
        make_checker(testbed, [node]).run()


def test_detects_cbf_cancelled_timer_left_buffered(testbed):
    (node,) = testbed.chain(1, 100.0)
    testbed.warm_up(2.0)
    _plant_buffer(testbed, node, cancel=True)
    with pytest.raises(InvariantViolation, match="cancelled contention timer"):
        make_checker(testbed, [node]).run()


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------
def test_detects_broken_ledger_conservation(testbed):
    testbed.warm_up(2.0)
    ledger = PacketLedger()
    record = ledger.originated("gbc", (1, 1), 0.0, 1)
    record.first_drop = (1.0, "bogus-reason")  # not in the outcome taxonomy
    with pytest.raises(InvariantViolation, match="conservation broken"):
        make_checker(testbed, ledger=ledger).run()


def test_detects_ledger_record_originated_in_the_future(testbed):
    testbed.warm_up(2.0)
    ledger = PacketLedger()
    ledger.originated("gbc", (9, 9), testbed.sim.now + 100.0, 1)
    with pytest.raises(InvariantViolation, match="originated in the future"):
        make_checker(testbed, ledger=ledger).run()


def test_detects_drop_preceding_origination(testbed):
    testbed.warm_up(2.0)
    ledger = PacketLedger()
    record = ledger.originated("gbc", (2, 2), 1.5, 1)
    record.first_drop = (0.5, reasons.LIFETIME_EXPIRED)
    with pytest.raises(InvariantViolation, match="drop precedes"):
        make_checker(testbed, ledger=ledger).run()


def test_detects_delivery_preceding_origination(testbed):
    testbed.warm_up(2.0)
    ledger = PacketLedger()
    record = ledger.originated("gbc", (3, 3), 1.5, 1)
    record.deliveries = 1
    record.first_delivery = 0.5
    with pytest.raises(InvariantViolation, match="delivery precedes"):
        make_checker(testbed, ledger=ledger).run()


# ----------------------------------------------------------------------
# radio slots
# ----------------------------------------------------------------------
def _slotted_testbed(testbed):
    """Beaconing nodes, a static-slot radio and a cell index in use."""
    nodes = testbed.chain(3, 200.0)
    loner = testbed.add_node(100.0, 50.0, beaconing=False)
    testbed.warm_up(4.0)
    # A CBF origination is a per-frame transmit: the index is cached.
    loner.originate(CircularArea(loner.position(), 10.0), "probe")
    make_checker(testbed, nodes).run()
    return nodes, loner


def test_detects_slot_position_disagreeing_with_its_radio(testbed):
    nodes, _loner = _slotted_testbed(testbed)
    testbed.fleet.move(nodes[1].slot, 5000.0, 0.0)  # the radio stays put
    with pytest.raises(InvariantViolation, match="disagrees with its slot"):
        make_checker(testbed).run()


def test_detects_registered_radio_without_a_slot(testbed):
    _nodes, loner = _slotted_testbed(testbed)
    testbed.fleet.remove(loner.iface.slot)  # behind the channel's back
    with pytest.raises(InvariantViolation, match="not in exactly one live slot"):
        make_checker(testbed).run()


def test_detects_cell_index_left_stale(testbed):
    nodes, loner = _slotted_testbed(testbed)
    slot = loner.iface.slot
    testbed.fleet.cell_index()
    # Moved in place with no version bump, and the radio moved with it.
    testbed.fleet.x[slot] = 900.0
    loner.mobility._position = Position(900.0, 50.0)
    with pytest.raises(InvariantViolation, match="cell index is stale"):
        make_checker(testbed).run()


# ----------------------------------------------------------------------
# traffic / fleet ownership
# ----------------------------------------------------------------------
def test_detects_lane_slots_out_of_progress_order():
    traffic = TrafficSimulation(
        RoadSegment(length=600.0, lanes_per_direction=1), rng=random.Random(1)
    )
    traffic.populate(spacing=50.0)
    for k in range(1, 11):
        traffic.step(k * traffic.dt)
    checker = InvariantChecker(Simulator(), traffic=traffic)
    checker.run()
    slots = traffic._lane_slots[traffic.road.lanes[0].index]
    slots[[0, 1]] = slots[[1, 0]]
    with pytest.raises(InvariantViolation, match="not sorted by progress"):
        checker.run()


def test_violation_carries_a_diagnostic_dump(testbed):
    testbed.warm_up(2.0)
    ledger = PacketLedger()
    ledger.originated("gbc", (9, 9), testbed.sim.now + 100.0, 1)
    with pytest.raises(InvariantViolation) as excinfo:
        make_checker(testbed, ledger=ledger).run()
    assert "sim.now=" in excinfo.value.dump
    assert "sim.now=" in str(excinfo.value)
    # a failed sweep does not count as a completed check
    checker = make_checker(testbed, ledger=ledger)
    with pytest.raises(InvariantViolation):
        checker.run()
    assert checker.checks_run == 0
