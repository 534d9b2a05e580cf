"""Fig 8 — accumulated inter-area interception rate over time (DSRC).

The paper overlays the cumulative γ of every DSRC scenario from Fig 7:
``mL_dflt``, ``mN_dflt``, ``wN_dflt``, ``wN_ttl10``, ``wN_ttl5``,
``wN_i100``, ``wN_i300`` and ``wN_2dir`` (names are
"attack-range_changed-parameter"; *dflt* is the default setting).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures.fig7 import AbRunner
from repro.experiments.reporting import FigureResult, cumulative_table
from repro.experiments.runner import run_ab
from repro.radio.technology import DSRC


def _scenarios(duration: float, seed: int) -> Dict[str, ExperimentConfig]:
    base = ExperimentConfig.inter_area_default(duration=duration, seed=seed)
    wN = DSRC.nlos_worst_m
    return {
        "mL_dflt": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=DSRC.los_median_m)
        ),
        "mN_dflt": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=DSRC.nlos_median_m)
        ),
        "wN_dflt": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=wN)
        ),
        "wN_ttl10": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=wN),
            geonet=dataclasses.replace(base.geonet, loct_ttl=10.0),
        ),
        "wN_ttl5": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=wN),
            geonet=dataclasses.replace(base.geonet, loct_ttl=5.0),
        ),
        "wN_i100": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=wN),
            road=dataclasses.replace(base.road, inter_vehicle_space=100.0),
        ),
        "wN_i300": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=wN),
            road=dataclasses.replace(base.road, inter_vehicle_space=300.0),
        ),
        "wN_2dir": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=wN),
            road=dataclasses.replace(base.road, directions=2),
        ),
    }


def figure8(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """Cumulative interception rates for all DSRC inter-area scenarios."""
    result = FigureResult(
        figure_id="Fig8",
        title="accumulated inter-area interception rate over time (DSRC)",
    )
    for label, config in _scenarios(duration, seed).items():
        result.add(
            label,
            runner(config.with_(label=label), runs=runs),
        )
    result.notes.append(
        cumulative_table("Fig8", result.series, bin_width=5.0)
    )
    return result
