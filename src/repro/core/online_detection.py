"""Online (streaming) attack detection over per-node feature streams.

:mod:`repro.core.detection` answers "what does one vehicle see?"; this
module answers the operational question: **would a fleet operator notice
the attack, how fast, and at what false-positive cost?**  A
:class:`DetectionPipeline` attaches a bounded-state
:class:`~repro.core.detection.MisbehaviorDetector` to every monitored
vehicle (watching every beacon its router is handed) and aggregates, per
tumbling window:

* **alert rates** — replayed-beacon / implausible-position / rhl-anomaly
  alerts per monitored node, the primary signature;
* **LocT churn** — inserts / refreshes / purges per monitored node
  (poisoning beacons teach victims far "neighbors" they never heard);
* **CBF duplicate mix** — duplicate suppressions and RHL-check rejections
  (the blockage attacker's cancel storm);
* **ledger outcome mix** — terminal packet outcomes when a
  :class:`~repro.observability.PacketLedger` rides along.

The :class:`OnlineDetector` scores each window: the per-monitor alert rate
against ``alert_rate_threshold``, and optionally any feature rate against
``feature_thresholds``.  A window scoring >= 1 is *flagged*; the first
flagged window's end is the detection time.  Real impairments — loss,
churn, GPS error from :mod:`repro.faults` — are the false-positive source:
GPS error pushes honest beacons past the plausibility range, so the
threshold trades detection latency against the impaired FP rate (see
``docs/detection.md`` for the calibration).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.detection import Alert, MisbehaviorDetector
from repro.geonet.node import GeoNode
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

#: Alert kinds, in reporting order.
ALERT_KINDS = ("replayed-beacon", "implausible-position", "rhl-anomaly")


@dataclass(frozen=True)
class WindowScore:
    """One closed aggregation window."""

    index: int
    start: float
    end: float
    monitors: int
    alerts: Dict[str, int]
    features: Dict[str, float]
    alert_rate: float
    score: float
    flagged: bool


class OnlineDetector:
    """Threshold scoring over closed windows.

    ``alert_rate_threshold`` is in alerts per monitored node per window —
    normalising by the monitor population makes one calibration work from a
    10-vehicle testbed to a full highway.  ``feature_thresholds`` maps
    feature names (same per-monitor-per-window units) to ceilings that can
    flag a window on their own.
    """

    def __init__(
        self,
        *,
        alert_rate_threshold: float = 5.0,
        feature_thresholds: Optional[Dict[str, float]] = None,
    ):
        if alert_rate_threshold <= 0:
            raise ValueError("alert_rate_threshold must be positive")
        for name, value in (feature_thresholds or {}).items():
            if value <= 0:
                raise ValueError(
                    f"feature threshold {name!r} must be positive, got {value!r}"
                )
        self.alert_rate_threshold = alert_rate_threshold
        self.feature_thresholds = dict(feature_thresholds or {})
        self.windows: List[WindowScore] = []
        self.first_detection: Optional[float] = None

    def close_window(
        self,
        *,
        start: float,
        end: float,
        monitors: int,
        alerts: Dict[str, int],
        features: Dict[str, float],
    ) -> WindowScore:
        """Score one window and record it."""
        monitors = max(1, monitors)
        alert_rate = sum(alerts.values()) / monitors
        score = alert_rate / self.alert_rate_threshold
        for name, threshold in self.feature_thresholds.items():
            value = features.get(name, 0.0)
            score = max(score, value / threshold)
        window = WindowScore(
            index=len(self.windows),
            start=start,
            end=end,
            monitors=monitors,
            alerts=dict(alerts),
            features=dict(features),
            alert_rate=alert_rate,
            score=score,
            flagged=score >= 1.0,
        )
        self.windows.append(window)
        if window.flagged and self.first_detection is None:
            self.first_detection = end
        return window


@dataclass
class DetectionSummary:
    """Per-run outcome of the online pipeline (flattens into run extras)."""

    monitors: int
    monitors_attached: int
    windows_total: int
    windows_flagged: int
    first_detection: Optional[float]
    alert_totals: Dict[str, int] = field(default_factory=dict)
    max_alert_rate: float = 0.0
    mean_alert_rate: float = 0.0

    @property
    def detected(self) -> bool:
        return self.first_detection is not None

    def extras(self, prefix: str = "detect_") -> Dict[str, float]:
        """Flat float mapping for ``RunResult.extras`` (store round-trip).

        ``first_detection_s`` uses -1.0 as the "never flagged" sentinel —
        extras are flat floats by contract.
        """
        out = {
            f"{prefix}monitors": float(self.monitors),
            f"{prefix}monitors_attached": float(self.monitors_attached),
            f"{prefix}windows_total": float(self.windows_total),
            f"{prefix}windows_flagged": float(self.windows_flagged),
            f"{prefix}first_detection_s": (
                -1.0 if self.first_detection is None else self.first_detection
            ),
            f"{prefix}max_alert_rate": self.max_alert_rate,
            f"{prefix}mean_alert_rate": self.mean_alert_rate,
        }
        total = 0
        for kind in ALERT_KINDS:
            count = self.alert_totals.get(kind, 0)
            total += count
            out[f"{prefix}alerts_{kind.replace('-', '_')}"] = float(count)
        out[f"{prefix}alerts_total"] = float(total)
        return out


class DetectionPipeline:
    """Deploys per-node detectors and closes scoring windows on a timer.

    Built by :class:`~repro.experiments.world.World` when
    ``config.detection.enabled``; strictly passive (detectors interpose on
    handlers and taps, the window timer only reads counters), so A/B
    pairing is untouched.
    """

    def __init__(
        self,
        *,
        sim: Simulator,
        window: float = 5.0,
        alert_rate_threshold: float = 5.0,
        feature_thresholds: Optional[Dict[str, float]] = None,
        ledger=None,
        detector_kwargs: Optional[dict] = None,
    ):
        if window <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.window = window
        self.ledger = ledger
        self.online = OnlineDetector(
            alert_rate_threshold=alert_rate_threshold,
            feature_thresholds=feature_thresholds,
        )
        self.detector_kwargs = dict(detector_kwargs or {})
        # The pipeline aggregates; per-alert objects on every node would
        # re-introduce the unbounded growth the detector fixes bound.
        self.detector_kwargs.setdefault("record_alerts", False)
        self.detectors: Dict[GeoNode, MisbehaviorDetector] = {}
        self.monitors_attached = 0
        self.alert_totals: Counter = Counter()
        self._window_alerts: Counter = Counter()
        self._retired_features: Counter = Counter()
        self._last_totals: Counter = Counter()
        self._timer = PeriodicProcess(
            sim, window, self._close_window, start_delay=window
        )

    # ------------------------------------------------------------------
    # monitor lifecycle
    # ------------------------------------------------------------------
    def attach(self, node: GeoNode) -> MisbehaviorDetector:
        """Start monitoring ``node`` (idempotent per node)."""
        detector = self.detectors.get(node)
        if detector is not None:
            return detector
        detector = MisbehaviorDetector(node, **self.detector_kwargs)
        detector.on_alert.append(self._on_alert)
        self.detectors[node] = detector
        self.monitors_attached += 1
        return detector

    def detach(self, node: GeoNode) -> None:
        """Stop monitoring ``node`` (it is leaving the run); its feature
        counters are retired into the running totals so window deltas stay
        monotonic."""
        detector = self.detectors.pop(node, None)
        if detector is None:
            return
        detector.stop()
        self._retired_features.update(self._node_features(node))

    def _on_alert(self, alert: Alert) -> None:
        self._window_alerts[alert.kind] += 1
        self.alert_totals[alert.kind] += 1

    # ------------------------------------------------------------------
    # feature streams
    # ------------------------------------------------------------------
    @staticmethod
    def _node_features(node: GeoNode) -> Counter:
        loct = node.router.loct
        cbf = node.router.cbf.stats
        return Counter(
            loct_inserts=loct.inserts,
            loct_refreshes=loct.refreshes,
            loct_purged=loct.purged,
            cbf_duplicate_suppressions=cbf.suppressed_by_duplicate,
            cbf_rhl_rejections=cbf.rhl_check_rejections,
        )

    def _close_window(self) -> None:
        now = self.sim.now
        totals = Counter(self._retired_features)
        for node in self.detectors:
            totals.update(self._node_features(node))
        if self.ledger is not None:
            for outcome, count in self.ledger.outcome_totals().items():
                totals[f"ledger_{outcome.replace('-', '_')}"] += count
        delta = totals - self._last_totals
        self._last_totals = totals
        monitors = len(self.detectors)
        per_monitor = max(1, monitors)
        features = {
            name: value / per_monitor for name, value in delta.items()
        }
        self.online.close_window(
            start=now - self.window,
            end=now,
            monitors=monitors,
            alerts=dict(self._window_alerts),
            features=features,
        )
        self._window_alerts.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summary(self) -> DetectionSummary:
        windows = self.online.windows
        rates = [w.alert_rate for w in windows]
        return DetectionSummary(
            monitors=len(self.detectors),
            monitors_attached=self.monitors_attached,
            windows_total=len(windows),
            windows_flagged=sum(1 for w in windows if w.flagged),
            first_detection=self.online.first_detection,
            alert_totals=dict(self.alert_totals),
            max_alert_rate=max(rates, default=0.0),
            mean_alert_rate=(sum(rates) / len(rates)) if rates else 0.0,
        )
