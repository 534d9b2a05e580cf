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

Grids are module constants so tests can shrink them by monkeypatching:
the sweep's settings read them when the campaign is planned, and workers
run the planned specs (see
:func:`repro.experiments.service.scheduler.run_service_campaign`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import DetectionConfig
from repro.experiments.reporting import FigureSeries, detection_table, fmt_pct
from repro.experiments.runner import AbResult, RunResult
from repro.experiments.sweep import AbTarget, attack_base, figure, grid
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


def cell_metrics(result: AbResult) -> Dict[str, Optional[float]]:
    """Precision / recall / latency / FP statistics of one cell's A/B result.

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
    atk = result.atk_runs
    af = result.af_runs
    detected = [r for r in atk if _first_detection(r) is not None]
    latencies = [_first_detection(r) for r in detected]
    af_flagging = [
        r for r in af if r.extras.get("detect_windows_flagged", 0.0) > 0
    ]
    af_windows = sum(r.extras.get("detect_windows_total", 0.0) for r in af)
    af_flagged = sum(r.extras.get("detect_windows_flagged", 0.0) for r in af)
    flagging_total = len(detected) + len(af_flagging)
    return {
        "recall": len(detected) / len(atk) if atk else None,
        "latency": sum(latencies) / len(latencies) if latencies else None,
        "precision": (
            len(detected) / flagging_total if flagging_total else None
        ),
        "fp_window_rate": af_flagged / af_windows if af_windows else 0.0,
        "fp_alerts": sum(r.extras.get("detect_alerts_total", 0.0) for r in af),
        "drop": result.drop_rate(),
        "replays": (
            sum(r.extras.get("replays_sent", 0.0) for r in atk) / len(atk)
            if atk
            else 0.0
        ),
    }


def _settings(duration: float, seed: int):
    base = attack_base("inter-area", duration=duration, seed=seed).with_(
        detection=DetectionConfig(enabled=True)
    )
    plans = dict(IMPAIRMENTS)

    def cell(scenario: str, variant: str, impairment: str):
        config = base.urbanized() if scenario == "urban" else base
        return config.with_(
            attack=replace(config.attack, variant=variant),
            faults=plans[impairment],
        )

    return grid(
        cell,
        DETECT_SCENARIOS,
        VARIANTS,
        [label for label, _plan in IMPAIRMENTS],
    )


def _rows(series: List[FigureSeries]) -> List[str]:
    return detection_table(
        [("/".join(entry.label), cell_metrics(entry.result)) for entry in series]
    )


def _mean_recall(series: List[FigureSeries], variant: str) -> Optional[float]:
    recalls = [
        cell_metrics(entry.result)["recall"]
        for entry in series
        if entry.label[1] == variant
    ]
    recalls = [recall for recall in recalls if recall is not None]
    return sum(recalls) / len(recalls) if recalls else None


def _notes(series: List[FigureSeries]) -> List[str]:
    adaptive = _mean_recall(series, "adaptive")
    static = _mean_recall(series, "single")
    if adaptive is None or static is None:
        return []
    return [
        "adaptive replay throttling cuts recall to "
        f"{fmt_pct(adaptive).strip()} vs {fmt_pct(static).strip()} for "
        "the static mast at comparable interception"
    ]


#: :data:`DETECT_SCENARIOS` × :data:`VARIANTS` × :data:`IMPAIRMENTS`,
#: keyed ``(scenario, variant, impairment label)``.
detect_sweep = AbTarget(
    _settings,
    figure(
        "detect",
        "online detection vs the extended threat model",
        legend="  (recall/latency from attacked runs; precision counts "
        "impairment-flagged attack-free runs as false alarms)",
        rows=_rows,
        notes=_notes,
    ),
)
