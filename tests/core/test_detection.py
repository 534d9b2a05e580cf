"""Tests for the misbehavior detection layer."""

import pytest

from repro.core.attacks import InterAreaInterceptor, IntraAreaBlocker
from repro.core.detection import MisbehaviorDetector, deploy_fleet_detectors
from repro.geo.areas import RectangularArea
from repro.geo.position import Position

FLOOD = RectangularArea(-100, 5000, -100, 100)


def test_attack_free_traffic_raises_no_alerts(testbed):
    nodes = testbed.chain(6, 350.0)
    detectors = deploy_fleet_detectors(nodes)
    testbed.warm_up(15.0)
    nodes[0].originate(FLOOD, "clean flood")
    testbed.sim.run_until(testbed.sim.now + 2.0)
    assert all(d.stats.total == 0 for d in detectors)


def test_beacon_replay_witnessed_by_doubly_covered_node(testbed):
    # v2 hears v3 directly AND via the attacker: it witnesses the replay.
    testbed.add_node(0.0)
    v2 = testbed.add_node(400.0)
    testbed.add_node(880.0)
    detector = MisbehaviorDetector(v2)
    InterAreaInterceptor(
        sim=testbed.sim,
        channel=testbed.channel,
        streams=testbed.streams,
        position=Position(450.0, -10.0),
        attack_range=600.0,
    )
    testbed.warm_up(12.0)
    assert detector.stats.replayed_beacons > 0


def test_poisoned_victim_sees_implausible_positions(testbed):
    v1 = testbed.add_node(0.0)
    testbed.add_node(880.0)
    detector = MisbehaviorDetector(v1, plausible_range=486.0)
    InterAreaInterceptor(
        sim=testbed.sim,
        channel=testbed.channel,
        streams=testbed.streams,
        position=Position(450.0, -10.0),
        attack_range=600.0,
    )
    testbed.warm_up(12.0)
    assert detector.stats.implausible_positions > 0
    kinds = {alert.kind for alert in detector.alerts}
    assert "implausible-position" in kinds


def test_rhl_rewrite_detected_by_contenders(testbed):
    nodes = testbed.chain(6, 350.0)
    detectors = deploy_fleet_detectors(nodes)
    IntraAreaBlocker(
        sim=testbed.sim,
        channel=testbed.channel,
        streams=testbed.streams,
        position=Position(900.0, -10.0),
        attack_range=500.0,
    )
    testbed.warm_up()
    nodes[0].originate(FLOOD, "blocked flood")
    testbed.sim.run_until(testbed.sim.now + 2.0)
    assert sum(d.stats.rhl_anomalies for d in detectors) > 0


def test_detector_does_not_break_protocol_processing(testbed):
    a = testbed.add_node(0.0)
    b = testbed.add_node(300.0)
    MisbehaviorDetector(b)
    testbed.warm_up()
    # Beacons still reach the router through the interposed handler.
    assert a.address in b.router.loct


def test_alert_callbacks_fire(testbed):
    v1 = testbed.add_node(0.0)
    testbed.add_node(880.0)
    detector = MisbehaviorDetector(v1)
    fired = []
    detector.on_alert.append(fired.append)
    InterAreaInterceptor(
        sim=testbed.sim,
        channel=testbed.channel,
        streams=testbed.streams,
        position=Position(450.0, -10.0),
        attack_range=600.0,
    )
    testbed.warm_up(12.0)
    assert fired
    assert fired[0].observer_addr == v1.address


def test_each_replay_flagged_once(testbed):
    testbed.add_node(0.0)
    v2 = testbed.add_node(400.0)
    testbed.add_node(880.0)
    detector = MisbehaviorDetector(v2)
    InterAreaInterceptor(
        sim=testbed.sim,
        channel=testbed.channel,
        streams=testbed.streams,
        position=Position(450.0, -10.0),
        attack_range=600.0,
    )
    testbed.sim.run_until(4.0)  # about one beacon per node
    # At most one replay alert per (source, timestamp) beacon.
    keys = [(a.subject_addr, a.detail) for a in detector.alerts
            if a.kind == "replayed-beacon"]
    assert len(keys) == len(set(keys))


def test_stopped_detector_raises_no_alerts(testbed):
    """A GeoBroadcast copy still in flight when a vehicle exits lands after
    its detector stopped; the stopped detector must not inspect it."""
    from repro.geonet.packets import GbcBody, GeoBroadcastPacket
    from repro.geo.position import PositionVector
    from repro.radio.frames import Frame, FrameKind
    from repro.security.signing import sign

    node = testbed.add_node(0.0, beaconing=False)
    detector = MisbehaviorDetector(node)
    body = GbcBody(
        source_addr=4242,
        sequence_number=1,
        source_pv=PositionVector(Position(100.0, 0.0), 0.0, 0.0, 0.0),
        area=FLOOD,
        payload="late copy",
        lifetime=60.0,
        created_at=0.0,
    )
    signed = sign(body, testbed.ca.enroll("source"))
    detector.stop()
    node.shutdown()
    for rhl in (10, 1):
        packet = GeoBroadcastPacket(
            signed=signed,
            rhl=rhl,
            sender_addr=4242,
            sender_position=Position(100.0, 0.0),
        )
        node.iface.deliver(
            Frame(
                kind=FrameKind.GEO_BROADCAST,
                sender_addr=4242,
                payload=packet,
                tx_position=Position(100.0, 0.0),
                tx_range=486.0,
                tx_time=0.0,
            )
        )
    assert detector.stats.total == 0


def test_invalid_plausible_range_rejected(testbed):
    node = testbed.add_node(0.0)
    with pytest.raises(ValueError):
        MisbehaviorDetector(node, plausible_range=0.0)
