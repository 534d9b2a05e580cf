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
from typing import Callable, List

from repro.experiments.figures.panels import RANGE_LABELS, on_attack, with_range
from repro.experiments.reporting import FigureResult, FigureSeries
from repro.experiments.runner import AbResult
from repro.experiments.sweep import AbTarget
from repro.geonet.config import GeoNetConfig
from repro.radio.technology import DSRC

#: Fig 14a's plausibility threshold: the DSRC NLoS-median range (486 m).
PLAUSIBILITY_THRESHOLD = DSRC.nlos_median_m

#: Fig 14b's RHL-drop threshold.
RHL_DROP_THRESHOLD = 3


@dataclass
class MitigationSeries(FigureSeries):
    """One attack range: the mitigated A/B result and its unmitigated twin."""

    unmitigated: AbResult

    @property
    def mitigated(self) -> AbResult:
        return self.result

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


def _plain_vs_mitigated(
    figure_id: str,
    title: str,
    attack: str,
    ranges: tuple,
    check: str,
    mitigate: Callable[[GeoNetConfig], GeoNetConfig],
    notes: Callable[[List[MitigationSeries]], List[str]],
) -> AbTarget:
    """Each attack range of ``ranges`` without and with the mitigation
    (``mitigate`` turns the check on in the attack's default GeoNet
    config; ``check`` labels the mitigated settings)."""

    def levels(base):
        mitigated = mitigate(base.geonet)
        pairs = []
        for label, range_class in ranges:
            config = with_range(base, DSRC.range_for(range_class))
            pairs.append(((label, "plain"), config))
            pairs.append(((label, check), config.with_(geonet=mitigated)))
        return pairs

    def render(results) -> FigureResult:
        series = [
            MitigationSeries(label=key[0], result=checked, unmitigated=plain)
            for (key, plain), (_key, checked) in zip(results[::2], results[1::2])
        ]
        return FigureResult(figure_id, title, series, notes(series))

    return on_attack(attack, levels, render)


def _fig14a_notes(series: List[MitigationSeries]) -> List[str]:
    af_with_check = series[0].mitigated.af_overall
    af_plain = series[0].unmitigated.af_overall
    return [
        f"attack-free reception without check: {af_plain:.1%}; "
        f"with check: {af_with_check:.1%} "
        f"(paper: ~54% -> 94.3%)"
    ]


#: GF plausibility check vs the inter-area attack (DSRC).
fig14a = _plain_vs_mitigated(
    "Fig14a",
    "GF plausibility check vs inter-area interception (DSRC)",
    "inter-area",
    RANGE_LABELS,
    "check",
    lambda geonet: dataclasses.replace(
        geonet,
        plausibility_check=True,
        plausibility_threshold=PLAUSIBILITY_THRESHOLD,
    ),
    _fig14a_notes,
)

#: CBF RHL-drop check vs the intra-area attack (DSRC).
fig14b = _plain_vs_mitigated(
    "Fig14b",
    "CBF RHL-drop check vs intra-area blockage (DSRC)",
    "intra-area",
    RANGE_LABELS[:2],
    "rhl",
    lambda geonet: dataclasses.replace(
        geonet, rhl_check=True, rhl_drop_threshold=RHL_DROP_THRESHOLD
    ),
    lambda series: ["paper: the RHL check restores attack-free reception rates"],
)
