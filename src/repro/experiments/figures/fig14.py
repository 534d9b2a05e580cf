"""Fig 14 — mitigation effectiveness (paper §V).

* (a) GF plausibility check (threshold = DSRC NLoS-median, 486 m) against
  wN/mN/mL inter-area attackers, plus the attack-free-with-check series:
  the paper measures +53.7/+61.6/+53.4 points of reception and 94.3 %
  attack-free reception with the check (vs ~54 % without).
* (b) CBF RHL-drop check (threshold 3) against wN/mN intra-area attackers:
  the check restores attack-free reception.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures.fig7 import AbRunner
from repro.experiments.runner import AbResult, run_ab
from repro.radio.technology import DSRC, RangeClass


@dataclass
class MitigationSeries:
    """One attack range: unmitigated vs mitigated A/B results."""

    label: str
    unmitigated: AbResult
    mitigated: AbResult

    @property
    def improvement(self) -> float:
        """Reception-rate points recovered by the mitigation (attacked runs)."""
        return self.mitigated.atk_overall - self.unmitigated.atk_overall

    def row(self) -> str:
        return (
            f"  {self.label:<10} atk={self.unmitigated.atk_overall:6.1%} -> "
            f"mitigated={self.mitigated.atk_overall:6.1%} "
            f"(+{self.improvement:.1%});  af={self.unmitigated.af_overall:6.1%} -> "
            f"af+check={self.mitigated.af_overall:6.1%}"
        )


@dataclass
class MitigationFigure:
    """All series of Fig 14a or Fig 14b."""

    figure_id: str
    title: str
    series: List[MitigationSeries]
    notes: List[str]

    def get(self, label: str) -> MitigationSeries:
        for entry in self.series:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def format(self) -> str:
        lines = [f"{self.figure_id}: {self.title}"]
        lines.extend(entry.row() for entry in self.series)
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def fig14a(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    threshold: Optional[float] = None,
    runner: AbRunner = run_ab,
) -> MitigationFigure:
    """GF plausibility check vs the inter-area attack (DSRC)."""
    base = ExperimentConfig.inter_area_default(duration=duration, seed=seed)
    check_threshold = DSRC.nlos_median_m if threshold is None else threshold
    mitigated_geonet = dataclasses.replace(
        base.geonet, plausibility_check=True, plausibility_threshold=check_threshold
    )
    series: List[MitigationSeries] = []
    for label, range_class in (
        ("wN", RangeClass.NLOS_WORST),
        ("mN", RangeClass.NLOS_MEDIAN),
        ("mL", RangeClass.LOS_MEDIAN),
    ):
        attack = dataclasses.replace(
            base.attack, attack_range=DSRC.range_for(range_class)
        )
        unmitigated = runner(
            base.with_(attack=attack, label=f"{label}-plain"),
            runs=runs,
        )
        mitigated = runner(
            base.with_(
                attack=attack, geonet=mitigated_geonet, label=f"{label}-check"
            ),
            runs=runs,
        )
        series.append(
            MitigationSeries(label=label, unmitigated=unmitigated, mitigated=mitigated)
        )
    af_with_check = series[0].mitigated.af_overall
    af_plain = series[0].unmitigated.af_overall
    notes = [
        f"attack-free reception without check: {af_plain:.1%}; "
        f"with check: {af_with_check:.1%} "
        f"(paper: ~54% -> 94.3%)"
    ]
    return MitigationFigure(
        figure_id="Fig14a",
        title="GF plausibility check vs inter-area interception (DSRC)",
        series=series,
        notes=notes,
    )


def fig14b(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    threshold: int = 3,
    runner: AbRunner = run_ab,
) -> MitigationFigure:
    """CBF RHL-drop check vs the intra-area attack (DSRC)."""
    base = ExperimentConfig.intra_area_default(duration=duration, seed=seed)
    mitigated_geonet = dataclasses.replace(
        base.geonet, rhl_check=True, rhl_drop_threshold=threshold
    )
    series: List[MitigationSeries] = []
    for label, range_class in (
        ("wN", RangeClass.NLOS_WORST),
        ("mN", RangeClass.NLOS_MEDIAN),
    ):
        attack = dataclasses.replace(
            base.attack, attack_range=DSRC.range_for(range_class)
        )
        unmitigated = runner(
            base.with_(attack=attack, label=f"{label}-plain"),
            runs=runs,
        )
        mitigated = runner(
            base.with_(
                attack=attack, geonet=mitigated_geonet, label=f"{label}-rhl"
            ),
            runs=runs,
        )
        series.append(
            MitigationSeries(label=label, unmitigated=unmitigated, mitigated=mitigated)
        )
    notes = ["paper: the RHL check restores attack-free reception rates"]
    return MitigationFigure(
        figure_id="Fig14b",
        title="CBF RHL-drop check vs intra-area blockage (DSRC)",
        series=series,
        notes=notes,
    )
