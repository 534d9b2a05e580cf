"""Tests for the unit-disk broadcast channel."""

import pytest

from repro.geo.position import Position
from repro.radio.channel import BroadcastChannel, RadioInterface
from repro.radio.frames import FrameKind
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


def make_channel(**kwargs):
    sim = Simulator()
    channel = BroadcastChannel(sim, RandomStreams(1), **kwargs)
    return sim, channel


def make_iface(channel, x, y=0.0, tx_range=100.0, **kwargs):
    iface = RadioInterface(lambda: Position(x, y), tx_range, **kwargs)
    received = []
    iface.attach(received.append)
    channel.register(iface)
    return iface, received


def test_broadcast_reaches_nodes_within_tx_range():
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0)
    _near, near_rx = make_iface(channel, 99)
    _far, far_rx = make_iface(channel, 101)
    sender.send(FrameKind.BEACON, "hello")
    sim.run_until(1.0)
    assert [f.payload for f in near_rx] == ["hello"]
    assert far_rx == []


def test_sender_does_not_receive_own_frame():
    sim, channel = make_channel()
    sender, sender_rx = make_iface(channel, 0)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert sender_rx == []


def test_boundary_distance_is_received():
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0, tx_range=100.0)
    _rx, received = make_iface(channel, 100.0)
    sender.send(FrameKind.BEACON, "edge")
    sim.run_until(1.0)
    assert len(received) == 1


def test_delivery_has_latency():
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0)
    _rx, received = make_iface(channel, 10)
    times = []
    _rx.attach(lambda f: times.append(sim.now))
    sender.send(FrameKind.BEACON, "x")
    assert times == []  # not delivered synchronously
    sim.run_until(1.0)
    assert len(times) == 1
    assert 0.0004 <= times[0] <= 0.001


def test_unicast_only_reaches_addressee():
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0)
    target, target_rx = make_iface(channel, 50)
    _other, other_rx = make_iface(channel, 60)
    sender.send(FrameKind.GEO_UNICAST, "p", dest_addr=target.address)
    sim.run_until(1.0)
    assert len(target_rx) == 1
    assert other_rx == []


def test_unicast_to_out_of_range_target_is_lost_and_counted():
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0, tx_range=100.0)
    target, target_rx = make_iface(channel, 200)
    sender.send(FrameKind.GEO_UNICAST, "p", dest_addr=target.address)
    sim.run_until(1.0)
    assert target_rx == []
    assert channel.stats.unicast_lost == 1


def test_unicast_to_unknown_address_counted_lost():
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0)
    sender.send(FrameKind.GEO_UNICAST, "p", dest_addr=999999)
    sim.run_until(1.0)
    assert channel.stats.unicast_lost == 1


def test_promiscuous_interface_overhears_unicast():
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0)
    target, _ = make_iface(channel, 50)
    sniffer, sniffed = make_iface(channel, 20, promiscuous=True)
    sender.send(FrameKind.GEO_UNICAST, "secret", dest_addr=target.address)
    sim.run_until(1.0)
    assert [f.payload for f in sniffed] == ["secret"]


def test_link_range_override_extends_reception():
    """A mast (link_range override) hears beyond the sender's tx range."""
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0, tx_range=100.0)
    mast, mast_rx = make_iface(channel, 500, link_range=1000.0)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert len(mast_rx) == 1


def test_link_range_override_limits_reception():
    """A short-range attacker does not get the vehicles' ears for free."""
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0, tx_range=486.0)
    weak, weak_rx = make_iface(channel, 400, link_range=327.0)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert weak_rx == []


def test_per_frame_tx_range_override():
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0, tx_range=100.0)
    _far, far_rx = make_iface(channel, 150)
    sender.send(FrameKind.BEACON, "boosted", tx_range=200.0)
    sim.run_until(1.0)
    assert len(far_rx) == 1


def test_obstruction_blocks_link():
    sim, channel = make_channel()
    channel.add_obstruction(lambda a, b: (a.x - 50) * (b.x - 50) < 0)
    sender, _ = make_iface(channel, 0)
    _blocked, blocked_rx = make_iface(channel, 80)
    _same_side, same_rx = make_iface(channel, 40)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert blocked_rx == []
    assert len(same_rx) == 1


def test_obstruction_public_api():
    _sim, channel = make_channel()
    assert not channel.has_obstructions
    channel.add_obstruction(lambda a, b: (a.x - 50) * (b.x - 50) < 0)
    assert channel.has_obstructions
    receiver, _ = make_iface(channel, 80)
    assert channel.is_link_blocked(Position(0, 0), receiver)
    assert not channel.is_link_blocked(Position(60, 0), receiver)


def test_block_mask_mixes_vector_and_scalar_predicates():
    import numpy as np

    _sim, channel = make_channel()
    # A scalar-only predicate and one implementing the blocks_many protocol.
    channel.add_obstruction(lambda a, b: a.x < 0)

    class Vectorised:
        def __call__(self, a, b):
            return b.x > 100

        def blocks_many(self, xs, ys, src, dst):
            return xs[dst] > 100

    channel.add_obstruction(Vectorised())
    # Endpoints 0-2 send, 3-5 receive: links (-1 -> 50), (10 -> 150),
    # (10 -> 50).
    xs = np.array([-1.0, 10.0, 10.0, 50.0, 150.0, 50.0])
    ys = np.zeros(6)
    mask = channel.block_mask(xs, ys, [0, 1, 2], [3, 4, 5])
    assert mask.tolist() == [True, True, False]


def test_unregister_stops_delivery():
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0)
    iface, received = make_iface(channel, 10)
    channel.unregister(iface)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert received == []


def test_duplicate_registration_rejected():
    _sim, channel = make_channel()
    iface, _ = make_iface(channel, 0)
    with pytest.raises(ValueError):
        channel.register(iface)


def test_unregister_unknown_is_noop():
    _sim, channel = make_channel()
    iface = RadioInterface(lambda: Position(0, 0), 10.0)
    channel.unregister(iface)  # must not raise


def test_positions_refresh_after_invalidation():
    """A radio outside the traffic moves by moving its slot: the move bumps
    the fleet's version, so the next lookup rebuilds the cell index."""
    sim, channel = make_channel()
    pos = {"x": 0.0}
    mover = RadioInterface(lambda: Position(pos["x"], 0), 100.0)
    mover_rx = []
    mover.attach(mover_rx.append)
    channel.register(mover)
    sender, _ = make_iface(channel, 500)
    # Out of range at first transmission.
    sender.send(FrameKind.BEACON, "one")
    sim.run_until(0.01)
    assert mover_rx == []
    # Move into range and report the move, as a mobile mast does.
    pos["x"] = 450.0
    channel.fleet.move(mover.slot, 450.0, 0.0)
    sender.send(FrameKind.BEACON, "two")
    sim.run_until(0.02)
    assert [f.payload for f in mover_rx] == ["two"]


def test_stats_count_sent_and_delivered():
    sim, channel = make_channel()
    sender, _ = make_iface(channel, 0)
    make_iface(channel, 10)
    make_iface(channel, 20)
    sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert channel.stats.frames_sent == 1
    assert channel.stats.frames_delivered == 2
    assert channel.stats.sent_by_kind[FrameKind.BEACON] == 1


def test_send_requires_registration():
    iface = RadioInterface(lambda: Position(0, 0), 10.0)
    with pytest.raises(RuntimeError):
        iface.send(FrameKind.BEACON, "x")


def test_negative_tx_range_rejected():
    with pytest.raises(ValueError):
        RadioInterface(lambda: Position(0, 0), -1.0)


def test_invalid_link_range_rejected():
    with pytest.raises(ValueError):
        RadioInterface(lambda: Position(0, 0), 10.0, link_range=0.0)


def test_channel_assigns_addresses_at_registration():
    _sim, channel = make_channel()
    a = RadioInterface(lambda: Position(0, 0), 10.0)
    assert a.address is None
    channel.register(a)
    b, _ = make_iface(channel, 5)
    pseudonym, _ = make_iface(channel, 10, address=1 << 40)
    assert (a.address, b.address, pseudonym.address) == (1, 2, 1 << 40)
    channel.unregister(a)
    channel.register(a)
    assert a.address == 1  # a re-registered radio keeps its address
