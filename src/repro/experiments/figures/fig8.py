"""Fig 8 — accumulated inter-area interception rate over time (DSRC).

The paper overlays the cumulative γ of every DSRC scenario from Fig 7:
``mL_dflt``, ``mN_dflt``, ``wN_dflt``, ``wN_ttl10``, ``wN_ttl5``,
``wN_i100``, ``wN_i300`` and ``wN_2dir`` (names are
"attack-range_changed-parameter"; *dflt* is the default setting).
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
    wN = with_range(base, DSRC.nlos_worst_m)
    return {
        "mL_dflt": with_range(base, DSRC.los_median_m),
        "mN_dflt": with_range(base, DSRC.nlos_median_m),
        "wN_dflt": wN,
        "wN_ttl10": ttl(wN, 10.0),
        "wN_ttl5": ttl(wN, 5.0),
        "wN_i100": spacing(wN, 100.0),
        "wN_i300": spacing(wN, 300.0),
        "wN_2dir": road_directions(wN, 2),
    }


#: Cumulative interception rates for all DSRC inter-area scenarios.
figure8 = cumulative_figure(
    "Fig8",
    "accumulated inter-area interception rate over time (DSRC)",
    "inter-area",
    _scenarios,
)
