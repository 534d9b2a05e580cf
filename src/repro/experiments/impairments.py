"""Impairment sweep: attack effectiveness under realistic fault load.

The paper evaluates its attacks on an ideal channel with an always-on
fleet.  This target re-runs the inter-area interception A/B comparison
under a grid of deterministic fault plans — per-link frame loss crossed
with node churn — and reports how the attack's drop rate and the baseline
delivery ratio degrade.  The point of the sweep is robustness of the
*conclusion*: interception should remain the dominant loss cause even when
the environment itself starts eating packets.

Levels are module constants so tests can shrink the grid by monkeypatching
(worker processes inherit the patched values through fork).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures.fig7 import AbRunner
from repro.experiments.reporting import fmt_pct
from repro.experiments.runner import AbResult, run_ab
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


@dataclass
class ImpairmentCell:
    """One (loss rate, churn level) grid point."""

    loss_rate: float
    churn_label: str
    mean_uptime: float
    result: AbResult

    def row(self) -> str:
        r = self.result
        drop = r.drop_rate()
        return (
            f"  loss={self.loss_rate:4.0%} churn={self.churn_label:<6} "
            f"af={fmt_pct(r.af_overall)}  atk={fmt_pct(r.atk_overall)}  "
            f"drop={fmt_pct(drop)} (abs {fmt_pct(r.drop_rate(relative=False))})"
        )


@dataclass
class ImpairmentSweepResult:
    """The full loss × churn grid of A/B comparisons."""

    cells: List[ImpairmentCell]

    def get(self, loss_rate: float, churn_label: str) -> ImpairmentCell:
        for cell in self.cells:
            if cell.loss_rate == loss_rate and cell.churn_label == churn_label:
                return cell
        raise KeyError((loss_rate, churn_label))

    def format(self) -> str:
        lines = [
            "faults: inter-area interception under channel loss x node churn",
            f"  (mean outage {MEAN_DOWNTIME:.0f}s; loss is per-link i.i.d.)",
        ]
        lines.extend(cell.row() for cell in self.cells)
        reference = self.cells[0] if self.cells else None
        if reference is not None and reference.loss_rate == 0.0:
            drop = reference.result.drop_rate()
            lines.append(
                "  note: the loss=0/churn=none cell reproduces the paper's "
                f"ideal-environment drop rate ({fmt_pct(drop).strip()})"
            )
        return "\n".join(lines)


def fault_sweep(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> ImpairmentSweepResult:
    """Sweep the inter-area attack over :data:`LOSS_LEVELS` × :data:`CHURN_LEVELS`."""
    base = ExperimentConfig.inter_area_default(duration=duration, seed=seed)
    cells: List[ImpairmentCell] = []
    for loss in LOSS_LEVELS:
        for churn_label, mean_uptime in CHURN_LEVELS:
            plan = FaultPlan(
                link=LinkFaultPlan(loss_rate=loss),
                churn=ChurnPlan(
                    mean_uptime=mean_uptime, mean_downtime=MEAN_DOWNTIME
                ),
            )
            config = base.with_(
                faults=plan,
                label=f"loss{loss:.0%}-churn-{churn_label}",
            )
            result = runner(config, runs=runs)
            cells.append(
                ImpairmentCell(
                    loss_rate=loss,
                    churn_label=churn_label,
                    mean_uptime=mean_uptime,
                    result=result,
                )
            )
    return ImpairmentSweepResult(cells=cells)
