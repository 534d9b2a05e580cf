"""Frame loss on the channel comes from the fault layer's link loss.

The channel has no loss model of its own: ``FaultPlan.link.loss_rate``
(installed by :class:`~repro.faults.injector.FaultInjector` as the
channel's ``link_fault`` hook) is the one i.i.d. per-receiver loss draw.
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.geo.position import Position
from repro.radio.channel import BroadcastChannel, RadioInterface
from repro.radio.frames import FrameKind
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


def make_channel(loss_rate):
    sim = Simulator()
    streams = RandomStreams(3)
    channel = BroadcastChannel(sim, streams)
    plan = FaultPlan.lossy(loss_rate)
    if not plan.is_zero:
        FaultInjector(plan, sim=sim, streams=streams, channel=channel)
    return sim, channel


def add_iface(channel, x):
    iface = RadioInterface(lambda: Position(x, 0.0), 1000.0)
    received = []
    iface.attach(received.append)
    channel.register(iface)
    return iface, received


def test_zero_loss_delivers_everything():
    sim, channel = make_channel(0.0)
    sender, _ = add_iface(channel, 0)
    _rx, received = add_iface(channel, 10)
    for _ in range(50):
        sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert len(received) == 50
    assert channel.link_fault is None
    assert channel.stats.frames_fault_dropped == 0


def test_loss_rate_drops_roughly_that_fraction():
    sim, channel = make_channel(0.3)
    sender, _ = add_iface(channel, 0)
    _rx, received = add_iface(channel, 10)
    for _ in range(500):
        sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    assert 250 < len(received) < 450  # ~350 expected
    assert channel.stats.frames_fault_dropped == 500 - len(received)


def test_loss_is_per_receiver_independent():
    sim, channel = make_channel(0.5)
    sender, _ = add_iface(channel, 0)
    _a, got_a = add_iface(channel, 10)
    _b, got_b = add_iface(channel, 20)
    for _ in range(200):
        sender.send(FrameKind.BEACON, "x")
    sim.run_until(1.0)
    # The two receivers' loss patterns differ (independent draws).
    assert len(got_a) != len(got_b) or got_a != got_b


def test_loss_is_seed_deterministic():
    counts = []
    for _ in range(2):
        sim, channel = make_channel(0.4)
        sender, _ = add_iface(channel, 0)
        _rx, received = add_iface(channel, 10)
        for _ in range(100):
            sender.send(FrameKind.BEACON, "x")
        sim.run_until(1.0)
        counts.append(len(received))
    assert counts[0] == counts[1]


def test_invalid_loss_rate_rejected():
    with pytest.raises(ValueError):
        make_channel(1.0)
    with pytest.raises(ValueError):
        make_channel(-0.1)


def test_experiment_config_plumbs_loss_rate():
    import dataclasses

    from repro.experiments import ExperimentConfig
    from repro.experiments.world import World

    config = ExperimentConfig.intra_area_default(duration=5.0)
    config = config.with_(
        faults=FaultPlan.lossy(0.2),
        road=dataclasses.replace(config.road, length=600.0),
    )
    world = World(config, attacked=False, seed=1)
    world.run()
    assert world.fault_injector is not None
    assert world.channel.link_fault is not None
    dropped = world.channel.stats.frames_fault_dropped
    assert dropped > 0
    assert world.fault_injector.stats.link_fault_drops == dropped


def test_invalid_config_loss_rate_rejected():
    from repro.experiments import ExperimentConfig

    with pytest.raises(ValueError):
        ExperimentConfig.intra_area_default().with_(faults=FaultPlan.lossy(1.5))
