"""Tests for periodic processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess, every


def test_every_fires_at_fixed_period():
    sim = Simulator()
    times = []
    every(sim, 1.0, lambda: times.append(sim.now))
    sim.run_until(4.5)
    assert times == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_start_delay_offsets_first_tick():
    sim = Simulator()
    times = []
    every(sim, 1.0, lambda: times.append(sim.now), start_delay=0.5)
    sim.run_until(3.0)
    assert times == [0.5, 1.5, 2.5]


def test_stop_prevents_future_ticks():
    sim = Simulator()
    times = []
    process = every(sim, 1.0, lambda: times.append(sim.now))
    sim.run_until(2.5)
    process.stop()
    sim.run_until(6.0)
    assert times == [0.0, 1.0, 2.0]
    assert process.stopped


def test_callback_may_stop_its_own_process():
    sim = Simulator()
    count = []

    def tick():
        count.append(sim.now)
        if len(count) == 3:
            process.stop()

    process = every(sim, 1.0, tick)
    sim.run_until(10.0)
    assert len(count) == 3


def test_non_positive_period_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 0.0, lambda: None)
    with pytest.raises(ValueError):
        PeriodicProcess(sim, -1.0, lambda: None)


def test_stop_is_idempotent():
    sim = Simulator()
    process = every(sim, 1.0, lambda: None)
    process.stop()
    process.stop()
    assert process.stopped
