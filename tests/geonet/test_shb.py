"""Tests for Single-Hop Broadcast (CAM/BSM-style messages)."""

import pytest

from repro.core.detection import MisbehaviorDetector
from repro.geonet.shb import ShbService


def attach(node):
    service = ShbService(node)
    received = []
    service.on_receive.append(lambda n, body: received.append(body))
    return service, received


def test_shb_reaches_direct_neighbors_only(testbed):
    a = testbed.add_node(0.0)
    b = testbed.add_node(300.0)
    far = testbed.add_node(900.0)
    sa, _ = attach(a)
    _sb, got_b = attach(b)
    _sf, got_far = attach(far)
    testbed.warm_up()
    sa.send("brake warning")
    testbed.sim.run_until(testbed.sim.now + 1.0)
    assert [body.payload for body in got_b] == ["brake warning"]
    assert got_far == []  # single hop: never forwarded


def test_shb_is_never_rebroadcast(testbed):
    nodes = testbed.chain(4, 300.0, beaconing=False)
    services = [attach(n)[0] for n in nodes]
    sent_before = testbed.channel.stats.frames_sent
    services[0].send("one-shot")
    testbed.sim.run_until(testbed.sim.now + 1.0)
    assert testbed.channel.stats.frames_sent == sent_before + 1


def test_shb_updates_location_table(testbed):
    a = testbed.add_node(0.0, beaconing=False)
    b = testbed.add_node(300.0)
    sa, _ = attach(a)
    attach(b)
    testbed.sim.run_until(1.0)
    assert a.address not in b.router.loct  # no beacons from a
    sa.send("implicit beacon")
    testbed.sim.run_until(testbed.sim.now + 1.0)
    entry = b.router.loct.get(a.address, testbed.sim.now)
    assert entry is not None


def test_shb_enters_the_loct_through_the_beacon_acceptor(testbed):
    """An SHB is an implicit beacon: the router's beacon taps (here a
    misbehavior detector) and beacon stats see it like any beacon."""
    a = testbed.add_node(0.0, beaconing=False)
    b = testbed.add_node(300.0, beaconing=False)
    sa, _ = attach(a)
    _sb, got = attach(b)
    detector = MisbehaviorDetector(b, plausible_range=100.0)
    sa.send("cam")
    testbed.sim.run_until(testbed.sim.now + 1.0)
    assert [body.payload for body in got] == ["cam"]
    assert [(alert.kind, alert.subject_addr) for alert in detector.alerts] == [
        ("implausible-position", a.address)
    ]
    assert b.router.stats.beacons_accepted == 1
    assert a.address in b.router.loct


def test_periodic_shb_at_10hz(testbed):
    a = testbed.add_node(0.0)
    b = testbed.add_node(100.0)
    sa, _ = attach(a)
    _sb, got = attach(b)
    sa.start_periodic(lambda: "cam", rate_hz=10.0)
    testbed.sim.run_until(2.5)
    assert 20 <= len(got) <= 26
    sa.stop()
    count = len(got)
    testbed.sim.run_until(5.0)
    assert len(got) == count


def test_periodic_cannot_start_twice(testbed):
    a = testbed.add_node(0.0)
    sa, _ = attach(a)
    sa.start_periodic(lambda: "x")
    with pytest.raises(RuntimeError):
        sa.start_periodic(lambda: "y")


def test_invalid_rate_rejected(testbed):
    sa, _ = attach(testbed.add_node(0.0))
    with pytest.raises(ValueError):
        sa.start_periodic(lambda: "x", rate_hz=0.0)


def test_own_shb_not_delivered_to_self(testbed):
    a = testbed.add_node(0.0)
    testbed.add_node(100.0)
    sa, got = attach(a)
    testbed.warm_up()
    sa.send("self")
    testbed.sim.run_until(testbed.sim.now + 1.0)
    assert got == []


def test_nodes_without_shb_service_ignore_shbs(testbed):
    a = testbed.add_node(0.0)
    plain = testbed.add_node(200.0)  # no ShbService attached
    sa, _ = attach(a)
    testbed.warm_up()
    sa.send("ignored gracefully")
    testbed.sim.run_until(testbed.sim.now + 1.0)
    # No crash, and the plain node's beacon path still works.
    assert a.address in plain.router.loct


def test_shb_sequence_numbers_increase(testbed):
    sa, _ = attach(testbed.add_node(0.0))
    first = sa.send("a")
    second = sa.send("b")
    assert second > first
