"""The discrete-event simulator.

:class:`Simulator` owns the clock and the event heap.  All other subsystems
(mobility, radio, GeoNetworking timers, attackers) schedule work through it,
which makes whole-system runs deterministic for a given seed.

The heap stores ``(time, priority, seq, event)`` tuples rather than event
objects, so sift comparisons are C-level tuple compares; ``seq`` is unique,
which keeps ordering total without ever comparing the payload.  The
simulator also keeps lightweight performance counters — events fired and
wall-clock time spent inside the run loop — so experiment reports can
state events/second without external instrumentation.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from typing import Any, Callable

from repro.sim.events import Event, EventHandle, FireOnce


class SimulationError(RuntimeError):
    """Raised on invalid scheduling requests (e.g. scheduling in the past)."""


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Example::

        sim = Simulator()
        sim.schedule(1.0, print, "hello at t=1")
        sim.run_until(10.0)
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._stopped = False
        self._events_fired = 0
        self._wall_time = 0.0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def wall_time_s(self) -> float:
        """Wall-clock seconds spent inside :meth:`run_until`."""
        return self._wall_time

    @property
    def events_per_wall_sec(self) -> float:
        """Fired events per wall-clock second of run-loop time."""
        if self._wall_time <= 0.0:
            return 0.0
        return self._events_fired / self._wall_time

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if math.isnan(time):
            raise SimulationError("cannot schedule an event at NaN time")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before now={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time=float(time), priority=priority, seq=seq, callback=callback, args=args)
        heapq.heappush(self._heap, (event.time, priority, seq, event))
        return EventHandle(event)

    def schedule_fire(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget: schedule ``callback(*args)`` with no handle.

        The hot path for bulk one-shot work (frame deliveries): same heap,
        same ordering (priority 0, insertion-order tiebreak) as
        :meth:`schedule`, but skips handle creation and the dataclass event.
        The scheduled callback cannot be cancelled.
        """
        if not delay >= 0.0:  # also rejects NaN
            raise SimulationError(f"schedule_fire delay must be >= 0, got {delay}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap, (self._now + delay, 0, seq, FireOnce(callback, args))
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_until(self, end_time: float) -> None:
        """Run events up to and including ``end_time``; advance clock to it.

        Events scheduled exactly at ``end_time`` fire.  Events beyond it stay
        queued so the simulation can be resumed.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time:.6f} is before now {self._now:.6f}"
            )
        self._stopped = False
        heap = self._heap
        started = _time.perf_counter()
        try:
            while heap and not self._stopped:
                if heap[0][0] > end_time:
                    break
                entry = heapq.heappop(heap)
                event = entry[3]
                if event.cancelled:
                    continue
                self._now = entry[0]
                self._events_fired += 1
                event.fire()
        finally:
            self._wall_time += _time.perf_counter() - started
        if not self._stopped:
            self._now = max(self._now, end_time)

    def stop(self) -> None:
        """Stop the current :meth:`run_until` after this event."""
        self._stopped = True
