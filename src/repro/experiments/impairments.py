"""Impairment sweep: attack effectiveness under realistic fault load.

The paper evaluates its attacks on an ideal channel with an always-on
fleet.  This target re-runs the inter-area interception A/B comparison
under a grid of deterministic fault plans — per-link frame loss crossed
with node churn — and reports how the attack's drop rate and the baseline
delivery ratio degrade.  The point of the sweep is robustness of the
*conclusion*: interception should remain the dominant loss cause even when
the environment itself starts eating packets.

Levels are module constants so tests can shrink the grid by
monkeypatching: the sweep's settings read them when the campaign is
planned, and workers run the planned specs (see
:func:`repro.experiments.service.scheduler.run_service_campaign`).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.reporting import FigureResult, FigureSeries, fmt_pct
from repro.experiments.sweep import AbTarget, attack_base, figure, grid
from repro.faults.plan import ChurnPlan, FaultPlan, LinkFaultPlan

#: Per-link i.i.d. frame-loss probabilities swept (0 = the paper's ideal
#: channel, the sweep's reference column).
LOSS_LEVELS: Tuple[float, ...] = (0.0, 0.05, 0.15)

#: Churn levels as (label, mean uptime seconds); 0 disables churn.
CHURN_LEVELS: Tuple[Tuple[str, float], ...] = (
    ("none", 0.0),
    ("light", 120.0),
    ("heavy", 40.0),
)

#: Mean outage duration once a node goes down (seconds).
MEAN_DOWNTIME = 8.0


def _settings(duration: float, seed: int):
    base = attack_base("inter-area", duration=duration, seed=seed)
    uptimes = dict(CHURN_LEVELS)

    def cell(loss: float, churn: str):
        plan = FaultPlan(
            link=LinkFaultPlan(loss_rate=loss),
            churn=ChurnPlan(mean_uptime=uptimes[churn], mean_downtime=MEAN_DOWNTIME),
        )
        return base.with_(faults=plan)

    return grid(cell, LOSS_LEVELS, [label for label, _uptime in CHURN_LEVELS])


def _rows(series: List[FigureSeries]) -> List[str]:
    return [
        f"  loss={entry.label[0]:4.0%} churn={entry.label[1]:<6} "
        f"{entry.comparison()}"
        for entry in series
    ]


def _notes(series: List[FigureSeries]) -> List[str]:
    if not series or series[0].label[0] != 0.0:
        return []
    return [
        "the loss=0/churn=none cell reproduces the paper's "
        f"ideal-environment drop rate ({fmt_pct(series[0].drop).strip()})"
    ]


def _render(results) -> FigureResult:
    return figure(
        "faults",
        "inter-area interception under channel loss x node churn",
        legend=f"  (mean outage {MEAN_DOWNTIME:.0f}s; loss is per-link i.i.d.)",
        rows=_rows,
        notes=_notes,
    )(results)


#: The inter-area attack over :data:`LOSS_LEVELS` × :data:`CHURN_LEVELS`,
#: keyed ``(loss rate, churn label)``.
fault_sweep = AbTarget(_settings, _render)
