"""Misbehavior detection for the paper's attacks.

The §V mitigations *prevent* damage; this module adds the monitoring
counterpart, usable as an intrusion-detection layer or to study how visible
the attacks are.  A :class:`MisbehaviorDetector` taps a node's radio
interface (no protocol changes) and raises alerts for the three observable
signatures the attacks leave:

* ``replayed-beacon`` — the same signed beacon (same source, same PV
  timestamp) heard more than once.  A vehicle inside both the advertiser's
  and the attacker's coverage witnesses the replay directly.
* ``implausible-position`` — a beacon advertising a position beyond the
  maximum plausible one-hop range.  Victims outside the advertiser's true
  coverage see this on every poisoning beacon.
* ``rhl-anomaly`` — a duplicate GeoBroadcast whose RHL dropped implausibly
  fast (the blockage attacker's RHL=1 rewrite).

Attack-free traffic produces none of these (tested), so any alert is
actionable.  The related work the paper cites ([22]) disseminates such
detections to neighbors; here the alerts are local and feed callbacks.

Detector state is bounded: beacon first-heard records expire with the
replay dedup window, duplicate-RHL records with the packet lifetime, and a
periodic sweep (plus an insert-time cap) keeps a quiet detector's tables
from retaining the whole run's history.

Beacons are observed where they enter the location table: the detector
registers :meth:`MisbehaviorDetector.observe_beacons` on the router's
``beacon_taps``, which sees every authentic beacon — fleet-tick batches
and the real frames a replayer sends alike.  Only the GeoBroadcast RHL
check interposes on the radio handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.geonet.checks import duplicate_rhl_plausible, position_plausible
from repro.geonet.node import GeoNode
from repro.geonet.packets import GeoBroadcastPacket
from repro.radio.frames import Frame, FrameKind
from repro.sim.process import PeriodicProcess


@dataclass(frozen=True)
class Alert:
    """One detection event."""

    kind: str
    time: float
    observer_addr: int
    subject_addr: int
    detail: str


@dataclass
class DetectorStats:
    """Aggregate alert counters per kind."""

    replayed_beacons: int = 0
    implausible_positions: int = 0
    rhl_anomalies: int = 0

    @property
    def total(self) -> int:
        return (
            self.replayed_beacons
            + self.implausible_positions
            + self.rhl_anomalies
        )


class MisbehaviorDetector:
    """Passive per-node monitor; interposes on the radio handler.

    ``max_tracked`` caps each state table (first-heard beacons, first-seen
    RHLs) regardless of traffic rate; ``prune_interval`` schedules a sweep
    that also shrinks the tables of a detector that went *quiet* (no sweep
    when None — callers drive :meth:`sweep` themselves).  ``packet_lifetime``
    bounds how long a duplicate-RHL record can stay useful (a GeoBroadcast
    older than its lifetime is dropped by every router, so a duplicate can
    no longer arrive).  ``record_alerts=False`` keeps only the counters and
    callbacks — the campaign-scale pipeline aggregates alerts elsewhere and
    must not retain one Alert object per poisoning beacon.
    """

    def __init__(
        self,
        node: GeoNode,
        *,
        plausible_range: float = 486.0,
        rhl_drop_threshold: int = 3,
        dedup_window: float = 2.0,
        packet_lifetime: float = 60.0,
        max_tracked: int = 4096,
        prune_interval: Optional[float] = 5.0,
        record_alerts: bool = True,
    ):
        if plausible_range <= 0:
            raise ValueError("plausible_range must be positive")
        if packet_lifetime <= 0:
            raise ValueError("packet_lifetime must be positive")
        if max_tracked < 1:
            raise ValueError("max_tracked must be >= 1")
        if prune_interval is not None and prune_interval <= 0:
            raise ValueError("prune_interval must be positive (or None)")
        self.node = node
        self.plausible_range = plausible_range
        self.rhl_drop_threshold = rhl_drop_threshold
        self.dedup_window = dedup_window
        self.packet_lifetime = packet_lifetime
        self.max_tracked = max_tracked
        self.record_alerts = record_alerts
        self.alerts: List[Alert] = []
        self.stats = DetectorStats()
        self.on_alert: List[Callable[[Alert], None]] = []
        #: (source addr, pv timestamp) -> first-heard time
        self._beacons_heard: Dict[Tuple[int, float], float] = {}
        #: packet id -> (first-seen RHL, first-seen time)
        self._first_rhl: Dict[tuple, Tuple[int, float]] = {}
        self._flagged_replays: Set[Tuple[int, float]] = set()
        self._inner = node.iface.handler
        node.iface.attach(self._observe)
        node.router.beacon_taps.append(self.observe_beacons)
        self._sweep_process: Optional[PeriodicProcess] = None
        if prune_interval is not None:
            self._sweep_process = PeriodicProcess(
                node.sim, prune_interval, self._sweep_tick,
                start_delay=prune_interval,
            )

    # ------------------------------------------------------------------
    def _raise(self, kind: str, subject_addr: int, detail: str) -> None:
        alert = Alert(
            kind=kind,
            time=self.node.sim.now,
            observer_addr=self.node.address,
            subject_addr=subject_addr,
            detail=detail,
        )
        if self.record_alerts:
            self.alerts.append(alert)
        if kind == "replayed-beacon":
            self.stats.replayed_beacons += 1
        elif kind == "implausible-position":
            self.stats.implausible_positions += 1
        else:
            self.stats.rhl_anomalies += 1
        for callback in self.on_alert:
            callback(alert)

    # ------------------------------------------------------------------
    def _observe(self, frame: Frame) -> None:
        try:
            if frame.kind is FrameKind.GEO_BROADCAST:
                self._inspect_broadcast(frame)
        finally:
            if self._inner is not None:
                self._inner(frame)

    def observe_beacons(self, entries, now: float) -> None:
        """Inspect a batch of authentic ``(addr, pv)`` beacons.

        Registered on the router's ``beacon_taps``, so it sees every beacon
        the router is handed, before the freshness check — a replay (a
        real frame) of a beacon first heard through the fleet tick is a
        second hearing.
        """
        for addr, pv in entries:
            self._check_beacon(addr, pv, now)

    def _check_beacon(self, source_addr: int, pv, now: float) -> None:
        key = (source_addr, pv.timestamp)
        first_heard = self._beacons_heard.get(key)
        if (
            first_heard is not None
            and now - first_heard <= self.dedup_window
            and key not in self._flagged_replays
        ):
            self._flagged_replays.add(key)
            self._raise(
                "replayed-beacon",
                source_addr,
                f"beacon t={pv.timestamp:.3f} heard twice "
                f"({now - first_heard:.4f}s apart)",
            )
        elif first_heard is None:
            self._beacons_heard[key] = now
            if len(self._beacons_heard) >= self.max_tracked:
                self._prune_beacons(now)
        if not position_plausible(
            self.node.position(), pv.position, self.plausible_range
        ):
            distance = self.node.position().distance_to(pv.position)
            self._raise(
                "implausible-position",
                source_addr,
                f"advertised {distance:.0f}m away "
                f"(plausible <= {self.plausible_range:.0f}m)",
            )

    def _inspect_broadcast(self, frame: Frame) -> None:
        packet = frame.payload
        if not isinstance(packet, GeoBroadcastPacket):
            return
        now = self.node.sim.now
        first = self._first_rhl.get(packet.packet_id)
        if first is None:
            self._first_rhl[packet.packet_id] = (packet.rhl, now)
            if len(self._first_rhl) >= self.max_tracked:
                self._prune_rhl(now)
            return
        if not duplicate_rhl_plausible(
            first[0], packet.rhl, self.rhl_drop_threshold
        ):
            self._raise(
                "rhl-anomaly",
                packet.sender_addr,
                f"duplicate of {packet.packet_id} with RHL "
                f"{first[0]}->{packet.rhl}",
            )

    # ------------------------------------------------------------------
    # bounded state
    # ------------------------------------------------------------------
    def _sweep_tick(self) -> None:
        self.sweep(self.node.sim.now)

    def sweep(self, now: float) -> None:
        """Expire every record past its useful horizon.

        Runs on the periodic schedule (``prune_interval``) so a detector
        that stops hearing traffic still releases its memory — the old
        insert-gated prune never fired again once the radio went quiet.
        """
        self._prune_beacons(now)
        self._prune_rhl(now)

    def _prune_beacons(self, now: float) -> None:
        cutoff = now - self.dedup_window
        self._beacons_heard = {
            key: t for key, t in self._beacons_heard.items() if t >= cutoff
        }
        if len(self._beacons_heard) > self.max_tracked:
            # Hot table: more live keys than the cap even after expiry.
            # Evict oldest-first — losing a first-heard record can only
            # miss a replay, never fabricate one.
            keep = sorted(
                self._beacons_heard.items(), key=lambda item: item[1]
            )[-self.max_tracked:]
            self._beacons_heard = dict(keep)
        if self._flagged_replays:
            self._flagged_replays &= set(self._beacons_heard)

    def _prune_rhl(self, now: float) -> None:
        cutoff = now - self.packet_lifetime
        self._first_rhl = {
            pid: rec for pid, rec in self._first_rhl.items() if rec[1] >= cutoff
        }
        if len(self._first_rhl) > self.max_tracked:
            keep = sorted(
                self._first_rhl.items(), key=lambda item: item[1][1]
            )[-self.max_tracked:]
            self._first_rhl = dict(keep)

    def tracked_state_size(self) -> int:
        """Total retained records (bounded-state tests and monitoring)."""
        return (
            len(self._beacons_heard)
            + len(self._first_rhl)
            + len(self._flagged_replays)
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Cancel the periodic sweep, release the beacon tap and hand the
        radio handler back (the node is leaving the run)."""
        if self._sweep_process is not None:
            self._sweep_process.stop()
            self._sweep_process = None
        try:
            self.node.router.beacon_taps.remove(self.observe_beacons)
        except ValueError:
            pass
        if self.node.iface.handler == self._observe:
            self.node.iface.attach(self._inner)


def deploy_fleet_detectors(
    nodes, **kwargs
) -> List[MisbehaviorDetector]:
    """Attach a detector to every node; returns them for inspection."""
    return [MisbehaviorDetector(node, **kwargs) for node in nodes]
