"""Unit tests for the fault injector against the mini testbed."""

import pytest

from repro.faults import FaultInjector, FaultPlan, GpsFaultPlan
from repro.geo.position import Position, PositionVector
from repro.observability import PacketLedger, reasons


def make_injector(tb, plan, *, ledger=None):
    return FaultInjector(
        plan, sim=tb.sim, streams=tb.streams, channel=tb.channel, ledger=ledger
    )


# ----------------------------------------------------------------------
# link loss
# ----------------------------------------------------------------------
def test_link_faults_require_a_channel(testbed):
    with pytest.raises(ValueError):
        FaultInjector(
            FaultPlan.lossy(0.1), sim=testbed.sim, streams=testbed.streams
        )


def test_iid_link_loss_drops_frames(testbed):
    injector = make_injector(testbed, FaultPlan.lossy(0.5))
    testbed.chain(3, 200.0)
    testbed.warm_up(10.0)
    assert injector.stats.link_fault_drops > 0
    assert (
        testbed.channel.stats.frames_fault_dropped
        == injector.stats.link_fault_drops
    )
    # faulted copies are a subset of, not an addition to, delivered frames
    assert testbed.channel.stats.frames_delivered > 0


def test_link_loss_is_seed_deterministic(make_testbed):
    counts = []
    for _ in range(2):
        tb = make_testbed(seed=11)
        injector = make_injector(tb, FaultPlan.lossy(0.3))
        tb.chain(3, 200.0)
        tb.warm_up(10.0)
        counts.append(
            (
                injector.stats.link_fault_drops,
                tb.channel.stats.frames_sent,
                tb.channel.stats.frames_delivered,
            )
        )
    assert counts[0] == counts[1]


def test_zero_plan_installs_no_channel_hook(testbed):
    make_injector(testbed, FaultPlan())
    assert testbed.channel.link_fault is None


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
def test_churn_cycles_outages_and_reboots(testbed):
    injector = make_injector(testbed, FaultPlan.churning(2.0, mean_downtime=1.0))
    nodes = testbed.chain(2, 200.0)
    for node in nodes:
        injector.adopt(node)
    testbed.warm_up(40.0)
    assert injector.stats.outages > 0
    assert injector.stats.reboots > 0
    # conservation of power states: every node is either up or down and
    # never double-counted
    for node in nodes:
        assert node.is_down == injector.is_down_addr(node.address)


def test_outage_powers_the_node_off_and_reboot_restores_it(testbed):
    injector = make_injector(testbed, FaultPlan.churning(1000.0))
    a, b = testbed.chain(2, 200.0)
    injector.adopt(b)
    testbed.warm_up(8.0)
    assert b.router.loct.get(a.address, testbed.sim.now) is not None
    stats_obj = b.router.stats
    accepted_before = stats_obj.beacons_accepted

    injector._outage(b)
    assert b.is_down
    assert injector.is_down_addr(b.address)
    assert not b.beacon_active()
    assert b.iface not in testbed.channel.interfaces
    assert injector.stats.outages == 1

    injector._reboot(b)
    assert not b.is_down
    assert not injector.is_down_addr(b.address)
    assert b.beacon_active()
    assert b.iface in testbed.channel.interfaces
    # volatile state wiped on reboot...
    assert b.router.loct.get(a.address, testbed.sim.now) is None
    # ...but the stats objects (and their counts) survive
    assert b.router.stats is stats_obj
    assert b.router.stats.beacons_accepted == accepted_before
    testbed.warm_up(8.0)
    # the node relearns its neighbor and keeps counting on the same object
    assert b.router.loct.get(a.address, testbed.sim.now) is not None
    assert b.router.stats.beacons_accepted > accepted_before


def test_release_cancels_pending_churn_timer(testbed):
    injector = make_injector(testbed, FaultPlan.churning(50.0))
    (node,) = testbed.chain(1, 100.0)
    injector.adopt(node)
    timer = injector._churn_timers[node]
    injector.release(node)
    assert timer.cancelled
    assert node not in injector._churn_timers
    assert not injector.is_down_addr(node.address)


def test_outage_skips_already_shut_down_nodes(testbed):
    injector = make_injector(testbed, FaultPlan.churning(50.0))
    (node,) = testbed.chain(1, 100.0)
    node.shutdown()
    injector._outage(node)
    assert injector.stats.outages == 0
    assert not injector.is_down_addr(node.address)


def test_down_node_sends_and_originates_nothing(testbed):
    ledger = PacketLedger()
    injector = make_injector(
        testbed, FaultPlan.churning(1000.0, mean_downtime=1000.0), ledger=ledger
    )
    a, b = testbed.chain(2, 200.0, ledger=ledger)
    injector.adopt(a)
    testbed.warm_up(5.0)
    injector._outage(a)
    a_sent, b_sent = testbed.beacons_sent(a), testbed.beacons_sent(b)
    testbed.warm_up(8.0)
    # The beacon tick skips the powered-off member while its neighbour
    # beacons on.
    assert a.is_down
    assert testbed.beacons_sent(a) == a_sent
    assert testbed.beacons_sent(b) > b_sent


def test_cbf_copies_buffered_at_outage_are_ledgered_node_down(testbed):
    from repro.geo.areas import RectangularArea

    ledger = PacketLedger()
    injector = make_injector(
        testbed, FaultPlan.churning(1000.0), ledger=ledger
    )
    nodes = testbed.chain(3, 300.0, ledger=ledger)
    for node in nodes:
        injector.adopt(node)
    testbed.warm_up(5.0)
    area = RectangularArea(-50.0, 1000.0, -50.0, 50.0)
    nodes[0].originate(area, "flood")
    # step in sub-contention increments until a neighbor holds a buffered
    # CBF copy, then power it off mid-contention
    victim = None
    for _ in range(200):
        testbed.sim.run_until(testbed.sim.now + 0.0005)
        for node in nodes[1:]:
            if node.router.cbf._buffers:
                victim = node
                break
        if victim is not None:
            break
    assert victim is not None, "no CBF copy was ever buffered"
    injector._outage(victim)
    assert not victim.router.cbf._buffers
    assert ledger.copy_drop_totals().get(reasons.NODE_DOWN, 0) >= 1


# ----------------------------------------------------------------------
# GPS error
# ----------------------------------------------------------------------
def _pv(x, y, t):
    return PositionVector(
        position=Position(x, y), speed=10.0, heading=0.0, timestamp=t
    )


def test_gps_error_perturbs_beacon_pv_not_mobility(testbed):
    injector = make_injector(
        testbed, FaultPlan(gps=GpsFaultPlan(error_stddev=5.0))
    )
    (node,) = testbed.chain(1, 100.0)
    injector.adopt(node)
    assert node.pv_fault is not None
    true_pv = _pv(100.0, 0.0, 1.0)
    faulted = node.pv_fault(true_pv)
    assert faulted.position != true_pv.position
    assert faulted.timestamp == true_pv.timestamp
    assert faulted.speed == true_pv.speed
    # the mobility source is untouched
    assert node.position() == Position(0.0, 0.0)
    assert injector.stats.gps_faulted_beacons == 1


def test_adoption_installs_only_enabled_hooks(testbed):
    injector = make_injector(testbed, FaultPlan.lossy(0.1))
    (node,) = testbed.chain(1, 100.0)
    injector.adopt(node)
    assert node.pv_fault is None
    assert node not in injector._churn_timers
