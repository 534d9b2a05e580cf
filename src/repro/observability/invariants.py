"""Opt-in runtime invariant checking.

A production-scale simulator must not *silently* corrupt results when a
subsystem misbehaves — especially once the fault-injection layer starts
tearing nodes down mid-run.  :class:`InvariantChecker` is scheduled on a
configurable cadence (``ExperimentConfig.invariant_check_interval``) and
asserts, each tick:

* **event queue monotonicity** — no pending event is due before ``now``,
  no time is NaN, the heap property holds, sequence numbers are unique;
* **LocT plausibility** — entries were updated in the past and carry
  finite coordinates inside the world (expiry is derived from the update
  time, so it cannot disagree with the TTL);
* **CBF timer sanity** — every buffered packet holds a live, non-negative
  contention timer due at or after ``now`` and a positive forward RHL;
* **ledger conservation** — every tracked packet has exactly one outcome,
  outcomes sum to originations, and no event precedes its origination;
* **radio slots** — every registered interface sits in exactly one live
  slot of the channel's fleet, at the position its ``get_position()``
  reports, and the fleet's cached cell index equals a fresh build;
* **traffic/fleet ownership** — every lane's slot array is sorted by
  progress, no slot is in two lanes or dead in the fleet, and every
  vehicle sits at ``lane.point_at(s)`` with the lane's heading.

On the first violation the checker raises :class:`InvariantViolation`
carrying a diagnostic dump (simulation clock, queue depth, the offending
object) — failing fast beats averaging corrupted numbers into a figure.

The checker is strictly read-only over protocol state but *does* occupy
event-queue slots when scheduled, so it is off by default; enabling it
changes event sequence numbers (never their relative order) and is not
covered by the bit-identity golden contract.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional

from repro.observability.ledger import PacketLedger

#: Slack for float comparisons against the simulation clock.
_EPS = 1e-9

#: Default bound on plausible LocT coordinates (metres).  Generous — the
#: worlds under study span a few km — while still catching sign garbage,
#: overflow and NaN propagation.
_DEFAULT_POSITION_BOUND = 1e7


class InvariantViolation(RuntimeError):
    """A simulation invariant does not hold.

    ``dump`` carries the multi-line diagnostic the checker assembled at
    detection time (also embedded in ``str(exc)``).
    """

    def __init__(self, message: str, dump: str = ""):
        self.dump = dump
        super().__init__(f"{message}\n{dump}" if dump else message)


class InvariantChecker:
    """Periodic runtime assertion of simulation invariants.

    Duck-typed against its collaborators so it can watch any subset:
    ``iter_nodes`` yields GeoNode-likes (or is None), ``channel`` is a
    BroadcastChannel (or None), ``traffic`` a TrafficSimulation (or None),
    ``ledger`` a PacketLedger (or None).
    """

    def __init__(
        self,
        sim,
        *,
        iter_nodes: Optional[Callable[[], Iterable]] = None,
        channel=None,
        traffic=None,
        ledger: Optional[PacketLedger] = None,
        position_bound: float = _DEFAULT_POSITION_BOUND,
    ):
        self._sim = sim
        self._iter_nodes = iter_nodes
        self._channel = channel
        self._traffic = traffic
        self._ledger = ledger
        self._position_bound = position_bound
        #: Completed (passing) check sweeps.
        self.checks_run = 0
        self.last_checked_at: Optional[float] = None

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run every check once; raises :class:`InvariantViolation`."""
        now = self._sim.now
        self._check_event_queue(now)
        if self._channel is not None:
            self._check_slots()
        if self._traffic is not None:
            self._check_traffic()
        if self._iter_nodes is not None:
            for node in self._iter_nodes():
                if getattr(node, "is_shut_down", False):
                    continue
                self._check_loct(node, now)
                self._check_cbf(node, now)
        if self._ledger is not None:
            self._check_ledger(now)
        self.checks_run += 1
        self.last_checked_at = now

    # ------------------------------------------------------------------
    # individual checks
    # ------------------------------------------------------------------
    def _fail(self, message: str, *detail: str) -> None:
        lines: List[str] = [
            f"  sim.now={self._sim.now:.6f}s  events_fired={self._sim.events_fired}"
            f"  pending={self._sim.pending}",
        ]
        lines.extend(f"  {line}" for line in detail)
        raise InvariantViolation(f"invariant violated: {message}", "\n".join(lines))

    def _check_event_queue(self, now: float) -> None:
        heap = self._sim._heap
        seen_seq = set()
        for i, entry in enumerate(heap):
            time, _priority, seq = entry[0], entry[1], entry[2]
            if math.isnan(time):
                self._fail("event queue holds a NaN-time event", f"entry[{i}]={entry!r}")
            if time < now - _EPS:
                self._fail(
                    "event queue is non-monotonic: pending event due in the past",
                    f"entry[{i}] due at t={time:.6f} < now={now:.6f}",
                    f"event={entry[3]!r}",
                )
            if seq in seen_seq:
                self._fail(
                    "event queue holds duplicate sequence numbers",
                    f"seq={seq} appears twice",
                )
            seen_seq.add(seq)
        for i in range(len(heap)):
            for child in (2 * i + 1, 2 * i + 2):
                if child < len(heap) and heap[child][:3] < heap[i][:3]:
                    self._fail(
                        "event heap property broken",
                        f"heap[{child}]={heap[child][:3]} < heap[{i}]={heap[i][:3]}",
                    )

    def _check_slots(self) -> None:
        channel = self._channel
        fleet = channel.fleet
        holders = {}
        for slot in fleet.live_slots().tolist():
            iface = fleet.ifaces[slot]
            if iface is not None and iface.channel is channel:
                holders.setdefault(id(iface), []).append(slot)
        for iface in channel.interfaces:
            slots = holders.get(id(iface), [])
            if slots != [iface.slot]:
                self._fail(
                    "registered interface not in exactly one live slot",
                    f"address={iface.address} slot={iface.slot}"
                    f" holding slots={slots}",
                )
            pos = iface.get_position()
            at = (fleet.x.item(iface.slot), fleet.y.item(iface.slot))
            if at != (pos.x, pos.y):
                self._fail(
                    "interface position disagrees with its slot",
                    f"address={iface.address} slot {iface.slot} at {at}"
                    f" get_position()=({pos.x}, {pos.y})",
                )
        if not fleet.index_is_current():
            self._fail(
                "fleet cell index is stale",
                "a column write skipped the version bump",
            )

    def _check_traffic(self) -> None:
        traffic = self._traffic
        fleet = traffic.fleet
        seen = set()
        for lane in traffic.road.lanes:
            slots = traffic._lane_slots[lane.index]
            progress = fleet.s[slots]
            if (progress[1:] < progress[:-1]).any():
                self._fail(
                    "lane slot array not sorted by progress",
                    f"lane={lane.index} slots={slots.tolist()} s={progress.tolist()}",
                )
            for slot in slots.tolist():
                if slot in seen or not fleet.alive[slot]:
                    self._fail(
                        "lane slot duplicated or not live in the fleet",
                        f"lane={lane.index} slot={slot}",
                    )
                seen.add(slot)
                x, y, s = fleet.x.item(slot), fleet.y.item(slot), fleet.s.item(slot)
                pose = (x, y, fleet.heading.item(slot))
                if pose != (*lane.point_at(s), lane.heading):
                    self._fail(
                        "vehicle pose (x, y, heading) disagrees with its lane",
                        f"lane={lane.index} slot={slot} s={s} pose={pose}",
                    )

    def _check_loct(self, node, now: float) -> None:
        bound = self._position_bound
        for addr, (pv, updated_at) in node.router.loct._entries.items():
            if updated_at > now + _EPS:
                self._fail(
                    "LocT entry updated in the future",
                    f"node={node.address} entry addr={addr}"
                    f" updated_at={updated_at:.6f} > now={now:.6f}",
                )
            x, y = pv.position.x, pv.position.y
            if not (math.isfinite(x) and math.isfinite(y)):
                self._fail(
                    "LocT entry carries a non-finite position",
                    f"node={node.address} entry addr={addr} pos=({x}, {y})",
                )
            if abs(x) > bound or abs(y) > bound:
                self._fail(
                    "LocT entry position outside the plausible world",
                    f"node={node.address} entry addr={addr}"
                    f" pos=({x:.1f}, {y:.1f}) bound={bound:.0f}",
                )

    def _check_cbf(self, node, now: float) -> None:
        for packet_id, buffered in node.router.cbf._buffers.items():
            timer = buffered.timer
            if timer.cancelled:
                self._fail(
                    "CBF buffer holds a cancelled contention timer",
                    f"node={node.address} packet={packet_id}",
                )
            if timer.time < now - _EPS:
                self._fail(
                    "CBF contention timer due in the past",
                    f"node={node.address} packet={packet_id}"
                    f" due={timer.time:.6f} < now={now:.6f}",
                )
            if timer.time < buffered.buffered_at - _EPS:
                self._fail(
                    "CBF contention timeout is negative",
                    f"node={node.address} packet={packet_id}"
                    f" due={timer.time:.6f} buffered_at={buffered.buffered_at:.6f}",
                )
            if buffered.buffered_at > now + _EPS:
                self._fail(
                    "CBF copy buffered in the future",
                    f"node={node.address} packet={packet_id}"
                    f" buffered_at={buffered.buffered_at:.6f} > now={now:.6f}",
                )
            if buffered.forward_rhl < 1:
                self._fail(
                    "CBF buffered a copy with an exhausted hop budget",
                    f"node={node.address} packet={packet_id}"
                    f" forward_rhl={buffered.forward_rhl}",
                )

    def _check_ledger(self, now: float) -> None:
        ledger = self._ledger
        totals = ledger.outcome_totals()
        if sum(totals.values()) != len(ledger):
            self._fail(
                "ledger conservation broken: outcomes do not sum to originations",
                f"sum(outcomes)={sum(totals.values())} originated={len(ledger)}",
                f"totals={totals}",
            )
        for record in ledger.records():
            if record.originated_at > now + _EPS:
                self._fail(
                    "ledger record originated in the future",
                    f"packet={record.packet_id} originated_at="
                    f"{record.originated_at:.6f} > now={now:.6f}",
                )
            first_drop = record.first_drop
            if (
                first_drop is not None
                and first_drop[0] < record.originated_at - _EPS
            ):
                self._fail(
                    "ledger drop precedes the packet's origination",
                    f"packet={record.packet_id} drop at {first_drop[0]:.6f}"
                    f" < originated_at={record.originated_at:.6f}",
                )
            if (
                record.first_delivery is not None
                and record.first_delivery < record.originated_at - _EPS
            ):
                self._fail(
                    "ledger delivery precedes the packet's origination",
                    f"packet={record.packet_id} delivery at "
                    f"{record.first_delivery:.6f}"
                    f" < originated_at={record.originated_at:.6f}",
                )
