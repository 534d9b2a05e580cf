"""Fig 10 — accumulated intra-area blockage rate over time (DSRC).

Overlays the cumulative λ of the DSRC intra-area scenarios: attack ranges
wN/mN/mL at default settings, plus the mN attacker under TTL, density and
direction changes.  The paper's takeaway: "The attack coverage is the only
factor impacting the attack effectiveness."
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures.panels import (
    cumulative_figure,
    road_directions,
    spacing,
    ttl,
    with_range,
)
from repro.radio.technology import DSRC


def _scenarios(base: ExperimentConfig) -> Dict[str, ExperimentConfig]:
    mN = with_range(base, DSRC.nlos_median_m)
    return {
        "wN_dflt": with_range(base, DSRC.nlos_worst_m),
        "mN_dflt": mN,
        "mL_dflt": with_range(base, DSRC.los_median_m),
        "mN_ttl5": ttl(mN, 5.0),
        "mN_i100": spacing(mN, 100.0),
        "mN_i300": spacing(mN, 300.0),
        "mN_2dir": road_directions(mN, 2),
    }


#: Cumulative blockage rates for all DSRC intra-area scenarios.
figure10 = cumulative_figure(
    "Fig10",
    "accumulated intra-area blockage rate over time (DSRC)",
    "intra-area",
    _scenarios,
)
