"""Tests for pseudonym rotation (the §II privacy feature)."""

import pytest

from repro.security.pseudonym import PseudonymPool


def make_pool(testbed):
    return PseudonymPool(testbed.streams.get("pseudonyms"))


def add_rotating_node(testbed, x, period=None):
    return testbed.add_node(
        x,
        name=f"rotating-{x}",
        pseudonym_pool=make_pool(testbed),
        pseudonym_period=period,
    )


def test_manual_rotation_changes_address(testbed):
    node = add_rotating_node(testbed, 0.0)
    old = node.address
    new = node.rotate_pseudonym()
    assert new != old
    assert node.address == new
    assert PseudonymPool.is_pseudonym(new)
    assert node.pseudonyms_used == 2


def test_rotation_requires_pool(testbed):
    node = testbed.add_node(0.0)
    with pytest.raises(RuntimeError):
        node.rotate_pseudonym()


def test_periodic_rotation_rotates(testbed):
    node = add_rotating_node(testbed, 0.0, period=10.0)
    testbed.sim.run_until(35.0)
    assert node.pseudonyms_used == 4  # rotations at t=10, 20, 30


def test_neighbors_learn_the_new_identity(testbed):
    observer = testbed.add_node(100.0)
    node = add_rotating_node(testbed, 0.0)
    testbed.warm_up()
    old = node.address
    new = node.rotate_pseudonym()
    testbed.sim.run_until(testbed.sim.now + 1.0)
    assert observer.router.loct.get(new, testbed.sim.now) is not None
    # The old identity lingers as a stale entry until its TTL runs out —
    # rotation does not scrub remote state.
    assert observer.router.loct.get(old, testbed.sim.now) is not None
    testbed.sim.run_until(testbed.sim.now + 21.0)
    assert observer.router.loct.get(old, testbed.sim.now) is None


def test_unicast_to_old_pseudonym_is_lost(testbed):
    sender = testbed.add_node(100.0)
    node = add_rotating_node(testbed, 0.0)
    testbed.warm_up()
    old = node.address
    node.rotate_pseudonym()
    lost_before = testbed.channel.stats.unicast_lost
    sender.iface.send(
        __import__("repro.radio.frames", fromlist=["FrameKind"]).FrameKind.GEO_UNICAST,
        "stale-session",
        dest_addr=old,
    )
    testbed.sim.run_until(testbed.sim.now + 1.0)
    assert testbed.channel.stats.unicast_lost == lost_before + 1


def test_rotation_after_shutdown_is_noop(testbed):
    node = add_rotating_node(testbed, 0.0)
    node.shutdown()
    address = node.address
    assert node.rotate_pseudonym() == address


def test_rotation_period_requires_pool(testbed):
    from repro.geo.position import Position
    from repro.geonet.node import GeoNode, StaticMobility

    with pytest.raises(ValueError):
        GeoNode(
            sim=testbed.sim,
            channel=testbed.channel,
            config=testbed.config,
            credentials=testbed.ca.enroll("bad"),
            mobility=StaticMobility(Position(0, 0)),
            tx_range=486.0,
            rng=testbed.streams.get("beacon:bad"),
            pseudonym_period=10.0,
        )
    # The raise leaves no radio on the channel and no static slot live.
    assert testbed.channel.interfaces == ()
    assert testbed.channel.fleet.live_slots().size == 0


def test_rotated_fleet_member_keeps_one_beacon_path(testbed):
    """The new radio takes the node's fleet slot: the fleet tick beacons
    from it and delivers to it, and no static real-frame slot is claimed
    for it.  Otherwise the node would hear every neighbor beacon twice
    (fleet batch + real frame) and its detector would cry replay."""
    from repro.core.detection import MisbehaviorDetector
    from repro.observability.invariants import InvariantChecker

    neighbor = testbed.add_node(100.0)
    node = add_rotating_node(testbed, 0.0)
    detector = MisbehaviorDetector(node)
    node.rotate_pseudonym()

    fleet = testbed.fleet
    slot = fleet.members.index(node)
    assert fleet.ifaces[slot] is node.iface
    assert node.iface.slot == node.slot == slot
    assert fleet.batch[slot]
    assert fleet.frame_slots().size == 0
    InvariantChecker(
        testbed.sim,
        iter_nodes=lambda: [neighbor, node],
        channel=testbed.channel,
    ).run()

    # Up to the 12.0 s tick, with its deliveries, and no later tick.
    testbed.sim.run_until(12.05)
    sent = testbed.beacons_sent(neighbor)
    assert sent >= 3
    assert node.router.stats.beacons_accepted == sent
    assert detector.stats.replayed_beacons == 0
