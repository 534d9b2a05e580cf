"""Tests for the Simulator's wall-clock performance counters."""

from repro.sim.engine import Simulator


def test_wall_time_accumulates_across_run_calls():
    sim = Simulator()
    assert sim.wall_time_s == 0.0
    for k in range(1, 101):
        sim.schedule_at(k * 0.01, lambda: None)
    sim.run_until(0.5)
    first = sim.wall_time_s
    assert first > 0.0
    assert sim.events_fired == 50
    sim.run_until(1.0)
    assert sim.wall_time_s >= first
    assert sim.events_fired == 100


def test_events_per_wall_sec_guarded_against_zero():
    sim = Simulator()
    assert sim.events_per_wall_sec == 0.0  # nothing ran yet
    sim.schedule_at(0.0, lambda: None)
    sim.run_until(0.0)
    assert sim.events_per_wall_sec > 0.0
