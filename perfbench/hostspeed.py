"""Host-speed probe: scales host seconds to a reference host speed.

Other tenants of a shared machine slow this process by up to 2x, for a few
seconds to several minutes at a time.  CPU time grows with wall time while
they do, so no time is taken from the process: the cores it runs on are
slower.  Host seconds of the program alone would measure the neighbours as
much as the program.

:class:`HostClock` times each span of program work and then runs
:func:`probe`, a fixed reference loop that uses no ``repro`` code.  It
scales the span's host seconds by :data:`REFERENCE_S` over the mean of the
probes just before and just after the span: the seconds the span would have
taken at the speed at which a probe takes ``REFERENCE_S``.  A change to the
program leaves the probe as it is, so it moves scaled seconds as it moves
host seconds on a quiet host.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Tuple, TypeVar

import numpy as np

perf = time.perf_counter
T = TypeVar("T")

#: Host seconds of one :func:`probe` on a quiet 2-vCPU x86-64 host with
#: CPython 3.11 (the fast mode of a few thousand probes).
REFERENCE_S = 0.006


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


_POINTS = [_Point(i * 0.5, i * 0.25) for i in range(300)]
_ARRAY = np.linspace(0.0, 1.0, 4096)


def probe() -> float:
    """Host seconds of one run of the reference loop.

    The loop mixes what the simulator spends its time on: attribute reads
    and float arithmetic on small objects, dict stores, a heap, and small
    numpy array operations.
    """
    start = perf()
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(4500):
        p = _POINTS[i % 300]
        acc += (p.x - 3.0) ** 2 + (p.y - 1.0) ** 2
        heapq.heappush(heap, (acc % 97.0, i))
        table[i & 255] = p
        if len(heap) > 64:
            heapq.heappop(heap)
    for _ in range(60):
        acc += float(np.count_nonzero((_ARRAY - 0.5) ** 2 < 0.1))
    return perf() - start


class HostClock:
    """Times calls and scales each by the probes just before and after it."""

    def __init__(self) -> None:
        self._last = probe()

    def time(self, fn: Callable[..., T], *args, **kwargs) -> Tuple[T, float, float]:
        """``fn(*args, **kwargs)``, its host seconds and its scaled seconds."""
        before = self._last
        start = perf()
        result = fn(*args, **kwargs)
        host = perf() - start
        self._last = probe()
        return result, host, host * 2.0 * REFERENCE_S / (before + self._last)
