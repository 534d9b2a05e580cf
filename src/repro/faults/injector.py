"""Runtime fault injection driven by a :class:`~repro.faults.plan.FaultPlan`.

The injector owns the ``fault:*`` RNG streams and installs hooks only for
the enabled dimensions:

* **link loss** — a ``link_fault`` predicate on the broadcast channel,
  consulted per receiver that range and obstructions let through (the
  only frame-loss model in the simulator);
* **churn** — exponential outage/reboot timers per adopted node, driving
  :meth:`GeoNode.go_down` / :meth:`GeoNode.come_up`;
* **GPS error** — a per-node ``pv_fault`` transform applied to beacon
  payloads only (true mobility, and hence the ground truth the metrics
  snapshot, is never perturbed);
* **beacon timing** — an ``extra_jitter`` draw added to each beacon cycle.

Nothing here touches the pre-existing RNG streams, so disabling a dimension
leaves the rest of the simulation bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple

from repro.geo.position import PositionVector
from repro.sim.events import EventHandle

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geonet.node import GeoNode
    from repro.radio.channel import BroadcastChannel
    from repro.sim.engine import Simulator
    from repro.sim.random import RandomStreams


@dataclass
class FaultStats:
    """What the injector actually did during a run."""

    link_fault_drops: int = 0
    burst_transitions: int = 0
    outages: int = 0
    reboots: int = 0
    gps_faulted_beacons: int = 0
    extra_jitter_draws: int = 0


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live simulation.

    Construct once per run (the experiment world does this when the plan is
    non-zero), then :meth:`adopt` every vehicle node as it spawns and
    :meth:`release` it when it exits the road.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        sim: "Simulator",
        streams: "RandomStreams",
        channel: Optional["BroadcastChannel"] = None,
        ledger=None,
    ):
        self.plan = plan
        self._sim = sim
        self._ledger = ledger
        self.stats = FaultStats()
        #: Addresses of nodes currently powered off — lets the world
        #: attribute "unicast toward a vanished next hop" as ``node-down``.
        self._down_addrs: Set[int] = set()
        self._churn_timers: Dict["GeoNode", EventHandle] = {}
        if plan.link.enabled:
            if channel is None:
                raise ValueError("link faults require a channel")
            self._link_rng = streams.get("fault:link-loss")
            #: Gilbert–Elliott state per directed link: True = bad.
            self._link_bad: Dict[Tuple[int, int], bool] = {}
            channel.link_fault = self._link_drop
        if plan.churn.enabled:
            self._churn_rng = streams.get("fault:churn")
        if plan.gps.enabled:
            self._gps_rng = streams.get("fault:gps")
        if plan.beacon.enabled:
            self._jitter_rng = streams.get("fault:beacon-jitter")

    # ------------------------------------------------------------------
    # node lifecycle
    # ------------------------------------------------------------------
    def adopt(self, node: "GeoNode") -> None:
        """Start injecting faults into ``node`` (call once per vehicle)."""
        if self.plan.gps.enabled:
            node.pv_fault = self._make_pv_fault()
        if self.plan.beacon.enabled:
            node.beacon_extra_jitter = self._draw_extra_jitter
        if self.plan.churn.enabled:
            self._schedule_outage(node)

    def release(self, node: "GeoNode") -> None:
        """Stop injecting into ``node`` (it is leaving the simulation)."""
        timer = self._churn_timers.pop(node, None)
        if timer is not None:
            timer.cancel()
        self._down_addrs.discard(node.address)

    def is_down_addr(self, addr: int) -> bool:
        """Whether ``addr`` belongs to a node currently powered off."""
        return addr in self._down_addrs

    # ------------------------------------------------------------------
    # link loss
    # ------------------------------------------------------------------
    def _link_drop(self, sender_addr: int, receiver_addr: int) -> bool:
        """Channel hook: True drops this copy for this receiver."""
        link = self.plan.link
        rng = self._link_rng
        drop = False
        if link.burst_p > 0.0:
            key = (sender_addr, receiver_addr)
            bad = self._link_bad.get(key, False)
            if bad:
                if rng.random() < link.burst_r:
                    bad = False
                    self.stats.burst_transitions += 1
            elif rng.random() < link.burst_p:
                bad = True
                self.stats.burst_transitions += 1
            self._link_bad[key] = bad
            if bad and rng.random() < link.burst_loss:
                drop = True
        if not drop and link.loss_rate > 0.0 and rng.random() < link.loss_rate:
            drop = True
        if drop:
            self.stats.link_fault_drops += 1
        return drop

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def _schedule_outage(self, node: "GeoNode") -> None:
        delay = self._churn_rng.expovariate(1.0 / self.plan.churn.mean_uptime)
        self._churn_timers[node] = self._sim.schedule(delay, self._outage, node)

    def _outage(self, node: "GeoNode") -> None:
        self._churn_timers.pop(node, None)
        if node.is_shut_down or node.is_down:
            return
        self.stats.outages += 1
        self._down_addrs.add(node.address)
        node.go_down()
        delay = self._churn_rng.expovariate(1.0 / self.plan.churn.mean_downtime)
        self._churn_timers[node] = self._sim.schedule(delay, self._reboot, node)

    def _reboot(self, node: "GeoNode") -> None:
        self._churn_timers.pop(node, None)
        self._down_addrs.discard(node.address)
        if node.is_shut_down:
            return
        self.stats.reboots += 1
        node.come_up()
        self._schedule_outage(node)

    # ------------------------------------------------------------------
    # GPS error
    # ------------------------------------------------------------------
    def _make_pv_fault(self) -> Callable[[PositionVector], PositionVector]:
        """A per-node beacon-PV transform with its own drift state."""
        return _PvFault(self)

    # ------------------------------------------------------------------
    # beacon timing
    # ------------------------------------------------------------------
    def _draw_extra_jitter(self) -> float:
        self.stats.extra_jitter_draws += 1
        return self._jitter_rng.uniform(0.0, self.plan.beacon.extra_jitter)


class _PvFault:
    """Per-node beacon-PV transform with its own drift state.

    A class (not a closure) so a node graph holding these remains
    picklable for checkpointing; the shared injector reference keeps the
    ``fault:gps`` stream and stats counters aliased across nodes.
    """

    def __init__(self, injector: FaultInjector):
        self._injector = injector
        self._ox = 0.0
        self._oy = 0.0
        self._last: Optional[float] = None

    def __call__(self, pv: PositionVector) -> PositionVector:
        injector = self._injector
        gps = injector.plan.gps
        rng = injector._gps_rng
        ox, oy = self._ox, self._oy
        if gps.drift_rate > 0.0:
            last = self._last
            dt = 0.0 if last is None else max(pv.timestamp - last, 0.0)
            if dt > 0.0:
                step = gps.drift_rate * math.sqrt(dt)
                ox += rng.gauss(0.0, step)
                oy += rng.gauss(0.0, step)
                self._ox, self._oy = ox, oy
            self._last = pv.timestamp
        dx, dy = ox, oy
        if gps.error_stddev > 0.0:
            dx += rng.gauss(0.0, gps.error_stddev)
            dy += rng.gauss(0.0, gps.error_stddev)
        injector.stats.gps_faulted_beacons += 1
        if dx == 0.0 and dy == 0.0:
            return pv
        return replace(pv, position=pv.position.translated(dx, dy))


__all__ = ["FaultInjector", "FaultStats"]
