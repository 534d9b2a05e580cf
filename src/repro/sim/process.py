"""Periodic processes on top of the event engine.

A :class:`PeriodicProcess` re-schedules itself every ``period`` seconds until
stopped.  It is used for mobility steps (100 ms), the fleet beacon tick,
spawners and metric samplers.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.events import EventHandle


class PeriodicProcess:
    """Calls ``callback()`` every ``period`` seconds.

    The callback may return a ``float`` to override the delay until the
    *next* invocation, which lets services apply per-cycle adaptivity.
    Only genuine floats count — callbacks that incidentally return ints
    (counters, addresses) keep the configured period.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        *,
        start_delay: float = 0.0,
        priority: int = 0,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._priority = priority
        self._handle: Optional[EventHandle] = None
        self._stopped = False
        self._handle = sim.schedule(start_delay, self._tick, priority=priority)

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    def _tick(self) -> None:
        if self._stopped:
            return
        override = self._callback()
        if self._stopped:  # the callback may stop the process
            return
        delay = (
            override
            if isinstance(override, float) and not isinstance(override, bool)
            else self._period
        )
        self._handle = self._sim.schedule(delay, self._tick, priority=self._priority)

    def stop(self) -> None:
        """Cancel the pending tick and stop rescheduling.  Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()


def every(
    sim: Simulator,
    period: float,
    callback: Callable[[], Any],
    *,
    start_delay: float = 0.0,
    priority: int = 0,
) -> PeriodicProcess:
    """Convenience wrapper: run ``callback`` every ``period`` seconds."""
    return PeriodicProcess(
        sim, period, callback, start_delay=start_delay, priority=priority
    )
