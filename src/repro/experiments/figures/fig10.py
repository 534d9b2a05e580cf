"""Fig 10 — accumulated intra-area blockage rate over time (DSRC).

Overlays the cumulative λ of the DSRC intra-area scenarios: attack ranges
wN/mN/mL at default settings, plus the mN attacker under TTL, density and
direction changes.  The paper's takeaway: "The attack coverage is the only
factor impacting the attack effectiveness."
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
    base = ExperimentConfig.intra_area_default(duration=duration, seed=seed)
    mN = DSRC.nlos_median_m
    return {
        "wN_dflt": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=DSRC.nlos_worst_m)
        ),
        "mN_dflt": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=mN)
        ),
        "mL_dflt": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=DSRC.los_median_m)
        ),
        "mN_ttl5": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=mN),
            geonet=dataclasses.replace(base.geonet, loct_ttl=5.0),
        ),
        "mN_i100": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=mN),
            road=dataclasses.replace(base.road, inter_vehicle_space=100.0),
        ),
        "mN_i300": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=mN),
            road=dataclasses.replace(base.road, inter_vehicle_space=300.0),
        ),
        "mN_2dir": base.with_(
            attack=dataclasses.replace(base.attack, attack_range=mN),
            road=dataclasses.replace(base.road, directions=2),
        ),
    }


def figure10(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """Cumulative blockage rates for all DSRC intra-area scenarios."""
    result = FigureResult(
        figure_id="Fig10",
        title="accumulated intra-area blockage rate over time (DSRC)",
    )
    for label, config in _scenarios(duration, seed).items():
        result.add(
            label,
            runner(config.with_(label=label), runs=runs),
        )
    result.notes.append(
        cumulative_table("Fig10", result.series, bin_width=5.0)
    )
    return result
