"""Detection sweep: online-detector scoring across the threat matrix.

The tentpole question of ROADMAP item 4: a fleet operator deploys the
windowed alert-rate pipeline (:mod:`repro.core.online_detection`) — which
attacker variants does it catch, how fast, and what do real impairments
cost in false positives?  The sweep crosses

* **attacker variant** — the paper's static mast, coordinated greedy-placed
  multi-mast, a mobile attacker riding the flow, and the adaptive attacker
  that throttles replays under the alert threshold;
* **impairment** — the ideal channel versus a realistic loss + churn + GPS
  error plan (the false-positive source: GPS error pushes honest beacons
  past the plausibility range);
* **scenario** — highway and Manhattan grid.

Every cell is a seed-paired A/B comparison: the attacked (B) runs score
recall and detection latency, the attack-free (A) runs under the same
impairments supply the false-positive denominator, and the reception drop
keeps attack *impact* on the same table — the adaptive row is the point:
near-static interception at a replay budget the detector never flags.

Grids are module constants so tests can shrink them by monkeypatching
(worker processes inherit the patched values through fork).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import DetectionConfig, ExperimentConfig
from repro.experiments.figures.fig7 import AbRunner
from repro.experiments.reporting import detection_table, fmt_pct
from repro.experiments.runner import AbResult, RunResult, run_ab
from repro.faults.plan import ChurnPlan, FaultPlan, GpsFaultPlan, LinkFaultPlan

#: Attacker variants swept (B-runs).
VARIANTS: Tuple[str, ...] = ("single", "coordinated", "mobile", "adaptive")

#: (label, fault plan) impairment levels.  ``impaired`` is the realistic
#: environment: 5 % i.i.d. link loss, occasional node outages, and an 8 m
#: GPS error that makes honest edge-of-range beacons implausible.
IMPAIRMENTS: Tuple[Tuple[str, FaultPlan], ...] = (
    ("clean", FaultPlan()),
    (
        "impaired",
        FaultPlan(
            link=LinkFaultPlan(loss_rate=0.05),
            churn=ChurnPlan(mean_uptime=60.0, mean_downtime=5.0),
            gps=GpsFaultPlan(error_stddev=8.0),
        ),
    ),
)

#: Scenarios swept.
DETECT_SCENARIOS: Tuple[str, ...] = ("highway", "urban")


def _first_detection(run: RunResult) -> Optional[float]:
    value = run.extras.get("detect_first_detection_s", -1.0)
    return value if value >= 0.0 else None


@dataclass
class DetectCell:
    """One (scenario, variant, impairment) grid point."""

    scenario: str
    variant: str
    impairment: str
    result: AbResult

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Optional[float]]:
        """Precision / recall / latency / FP statistics for this cell.

        * **recall** — fraction of attacked runs with a flagged window;
        * **latency** — mean first-detection time over detected runs;
        * **precision** — detected attacked runs over all flagging runs
          (attacked detections + attack-free runs that flagged a window,
          the impairment-driven false alarms);
        * **fp_window_rate** — flagged windows over total windows in the
          attack-free runs;
        * **fp_alerts** — total attack-free alerts (the pinned, quantified
          nonzero-tolerable FP source under impairments);
        * **drop** — the cell's attack impact (γ), same as every A/B table.
        """
        atk = self.result.atk_runs
        af = self.result.af_runs
        detected = [r for r in atk if _first_detection(r) is not None]
        latencies = [_first_detection(r) for r in detected]
        af_flagging = [
            r for r in af if r.extras.get("detect_windows_flagged", 0.0) > 0
        ]
        af_windows = sum(
            r.extras.get("detect_windows_total", 0.0) for r in af
        )
        af_flagged = sum(
            r.extras.get("detect_windows_flagged", 0.0) for r in af
        )
        flagging_total = len(detected) + len(af_flagging)
        return {
            "recall": len(detected) / len(atk) if atk else None,
            "latency": (
                sum(latencies) / len(latencies) if latencies else None
            ),
            "precision": (
                len(detected) / flagging_total if flagging_total else None
            ),
            "fp_window_rate": af_flagged / af_windows if af_windows else 0.0,
            "fp_alerts": sum(
                r.extras.get("detect_alerts_total", 0.0) for r in af
            ),
            "drop": self.result.drop_rate(),
            "replays": (
                sum(r.extras.get("replays_sent", 0.0) for r in atk) / len(atk)
                if atk
                else 0.0
            ),
        }

    @property
    def label(self) -> str:
        return f"{self.scenario}/{self.variant}/{self.impairment}"


@dataclass
class DetectSweepResult:
    """The full scenario × variant × impairment grid."""

    cells: List[DetectCell]

    def get(self, scenario: str, variant: str, impairment: str) -> DetectCell:
        for cell in self.cells:
            if (
                cell.scenario == scenario
                and cell.variant == variant
                and cell.impairment == impairment
            ):
                return cell
        raise KeyError((scenario, variant, impairment))

    def format(self) -> str:
        lines = [
            "detect: online detection vs the extended threat model",
            "  (recall/latency from attacked runs; precision counts "
            "impairment-flagged attack-free runs as false alarms)",
        ]
        lines.extend(
            detection_table(
                [(cell.label, cell.metrics()) for cell in self.cells]
            )
        )
        adaptive = [c for c in self.cells if c.variant == "adaptive"]
        static = [c for c in self.cells if c.variant == "single"]
        if adaptive and static:
            a_recall = [
                m["recall"]
                for m in (c.metrics() for c in adaptive)
                if m["recall"] is not None
            ]
            s_recall = [
                m["recall"]
                for m in (c.metrics() for c in static)
                if m["recall"] is not None
            ]
            if a_recall and s_recall:
                lines.append(
                    "  note: adaptive replay throttling cuts recall to "
                    f"{fmt_pct(sum(a_recall) / len(a_recall)).strip()} vs "
                    f"{fmt_pct(sum(s_recall) / len(s_recall)).strip()} for "
                    "the static mast at comparable interception"
                )
        return "\n".join(lines)


def detect_sweep(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> DetectSweepResult:
    """Sweep :data:`DETECT_SCENARIOS` × :data:`VARIANTS` × :data:`IMPAIRMENTS`."""
    base = ExperimentConfig.inter_area_default(duration=duration, seed=seed)
    base = base.with_(detection=DetectionConfig(enabled=True))
    cells: List[DetectCell] = []
    for scenario in DETECT_SCENARIOS:
        scenario_base = base.urbanized() if scenario == "urban" else base
        for variant in VARIANTS:
            for label, plan in IMPAIRMENTS:
                config = scenario_base.with_(
                    attack=replace(scenario_base.attack, variant=variant),
                    faults=plan,
                    label=f"{scenario}-{variant}-{label}",
                )
                result = runner(config, runs=runs)
                cells.append(
                    DetectCell(
                        scenario=scenario,
                        variant=variant,
                        impairment=label,
                        result=result,
                    )
                )
    return DetectSweepResult(cells=cells)
