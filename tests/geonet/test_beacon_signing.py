"""A beacon is signed only when a frame carries it.

Fleet receivers take a beacon's ``(addr, pv)`` entry and read no
signature, so the beacon tick signs a beacon only on its sender's first
real frame of the tick (the attacker's mast, a radio that does not
beacon), and ``GeoNode.send_beacon`` signs the announce after a pseudonym
rotation as it sends.  Both sign through ``repro.geonet.node.sign``, which
these tests wrap and count.
"""

import pytest

from repro.core.attacks import InterAreaInterceptor
from repro.experiments.config import ExperimentConfig
from repro.experiments.world import World
from repro.geo.position import Position
from repro.geonet import node as node_module
from repro.geonet.packets import BeaconBody
from repro.radio.channel import RadioInterface
from repro.radio.frames import FrameKind
from repro.security.pseudonym import PseudonymPool
from repro.security.signing import SignedMessage, verify

DURATION = 10.0


@pytest.fixture
def signed(monkeypatch):
    """Every beacon message signed through ``repro.geonet.node.sign``."""
    log = []
    original = node_module.sign

    def counting_sign(body, credentials):
        message = original(body, credentials)
        if isinstance(body, BeaconBody):
            log.append(message)
        return message

    monkeypatch.setattr(node_module, "sign", counting_sign)
    return log


def _unmemoized(message):
    """``message`` without its recorded verdict, so :func:`verify` checks
    the signature itself."""
    return SignedMessage(
        body=message.body,
        certificate=message.certificate,
        signature=message.signature,
    )


def _highway(attacked):
    config = ExperimentConfig.inter_area_default(duration=DURATION, seed=3)
    world = World(config, attacked=attacked)
    world.run()
    return world


def test_attack_free_highway_signs_no_fleet_beacon(signed):
    world = _highway(attacked=False)
    assert world.fleet_scheduler.beacons_sent > 0
    assert signed == []


def test_attacked_highway_signs_only_senders_a_frame_carries(signed, monkeypatch):
    """Each signed beacon is one due sender's, once per tick, and exactly
    the senders whose tick-built frame reached a real-frame radio."""
    carried = set()
    deliver = RadioInterface.deliver

    def recording_deliver(iface, frame):
        payload = frame.payload
        if (
            frame.kind is FrameKind.BEACON
            and frame.sender_addr == payload.body.source_addr
        ):
            carried.add((frame.tx_time, frame.sender_addr))
        deliver(iface, frame)

    monkeypatch.setattr(RadioInterface, "deliver", recording_deliver)
    world = _highway(attacked=True)

    keys = [(m.body.pv.timestamp, m.body.source_addr) for m in signed]
    assert len(set(keys)) == len(keys)
    assert all(m.cached_verdict() is True for m in signed)
    # Deliveries of the last tick may still be pending when the run ends.
    settled = DURATION - 1.0
    assert {k for k in keys if k[0] < settled} == {
        k for k in carried if k[0] < settled
    }
    assert 0 < len(signed) < world.fleet_scheduler.beacons_sent


def test_sniffed_beacon_verifies_and_poisons_when_replayed(testbed, signed):
    """V1 cannot hear V3; the mast sniffs V3's beacon from a real frame of
    the tick and replays it verbatim.  The replayed signature is valid on
    its own, and V1 takes V3 into its LocT."""
    v1 = testbed.add_node(0.0)
    testbed.add_node(400.0)
    v3 = testbed.add_node(880.0)
    mast = InterAreaInterceptor(
        sim=testbed.sim,
        channel=testbed.channel,
        streams=testbed.streams,
        position=Position(450.0, -10.0),
        attack_range=600.0,
    )
    replayed = []
    replay_frame = mast.replay_frame

    def recording_replay(frame, *args, **kwargs):
        replayed.append(frame.payload)
        return replay_frame(frame, *args, **kwargs)

    mast.replay_frame = recording_replay
    testbed.warm_up()

    from_v3 = [m for m in replayed if m.body.source_addr == v3.address]
    assert from_v3
    for message in from_v3:
        assert any(message is m for m in signed)
        assert message.certificate == v3.credentials.certificate
        assert verify(_unmemoized(message))
    entry = v1.router.loct.get(v3.address, testbed.sim.now)
    assert entry is not None
    assert entry.position == Position(880.0, 0.0)
    assert v1.router.stats.beacons_rejected_auth == 0


def test_rotation_announce_is_signed_by_the_node(testbed, signed):
    node = testbed.add_node(
        0.0,
        name="rotating",
        pseudonym_pool=PseudonymPool(testbed.streams.get("pseudonyms")),
    )
    heard = []
    listener = RadioInterface(lambda: Position(50.0, 0.0), 10.0)
    listener.attach(heard.append)
    testbed.channel.register(listener)
    testbed.sim.run_until(0.05)  # before the first beacon tick

    new = node.rotate_pseudonym()
    testbed.sim.run_until(0.09)

    assert [frame.kind for frame in heard] == [FrameKind.BEACON]
    frame = heard[0]
    message = frame.payload
    assert frame.sender_addr == new
    assert message.body.source_addr == new
    assert message.certificate == node.credentials.certificate
    assert verify(_unmemoized(message))
    assert [m is message for m in signed] == [True]
