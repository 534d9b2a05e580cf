"""Tests for the discrete-event simulator core."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_starts_at_custom_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_schedule_and_run_until_fires_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run_until(10.0)
    assert fired == ["a", "b", "c"]


def test_run_until_advances_clock_to_end_time():
    sim = Simulator()
    sim.run_until(7.5)
    assert sim.now == 7.5


def test_events_at_end_time_fire():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, 1)
    sim.run_until(5.0)
    assert fired == [1]


def test_events_beyond_end_time_stay_queued():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, 1)
    sim.run_until(4.0)
    assert fired == []
    sim.run_until(6.0)
    assert fired == [1]


def test_simultaneous_events_fire_in_priority_then_fifo_order():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "second", priority=0)
    sim.schedule(1.0, fired.append, "third", priority=0)
    sim.schedule(1.0, fired.append, "first", priority=-5)
    sim.run_until(2.0)
    assert fired == ["first", "second", "third"]


def test_clock_is_event_time_inside_callback():
    sim = Simulator()
    seen = []
    sim.schedule(3.25, lambda: seen.append(sim.now))
    sim.run_until(10.0)
    assert seen == [3.25]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda: None)


def test_scheduling_nan_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_run_until_backwards_raises():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(3.0)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    handle.cancel()
    sim.run_until(2.0)
    assert fired == [2]
    assert sim.events_fired == 1
    assert handle.cancelled


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_events_can_schedule_new_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, fired.append, "second")

    sim.schedule(1.0, first)
    sim.run_until(5.0)
    assert fired == ["first", "second"]


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, fired.append, sim.now))
    sim.run_until(2.0)
    assert fired == [1.0]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run_until(10.0)
    assert fired == [1]
    assert sim.pending == 1
    assert sim.now == 2.0  # a stopped run leaves the clock at the stop


def test_run_drains_all_events():
    sim = Simulator()
    fired = []
    for t in (3.0, 1.0, 2.0):
        sim.schedule(t, fired.append, t)
    sim.run_until(3.0)
    assert fired == [1.0, 2.0, 3.0]
    assert sim.pending == 0



def test_events_fired_counter():
    sim = Simulator()
    for t in range(5):
        sim.schedule(float(t + 1), lambda: None)
    sim.run_until(10.0)
    assert sim.events_fired == 5


def test_event_args_are_passed():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda a, b: seen.append((a, b)), "x", 2)
    sim.run_until(2.0)
    assert seen == [("x", 2)]


def test_resume_after_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 10)
    sim.run_until(5.0)
    sim.run_until(15.0)
    assert fired == [1, 10]
