"""Fig 7 — effectiveness of the *inter-area interception attack*.

Five panels sweep one parameter each against the paper's defaults
(single-direction two-lane 4 km road, 30 m spacing, 20 s TTL, DSRC):

* (a) attack range wN/mN/mL with DSRC   — paper γ: 46.8 / ~98 / 99.9 %
* (b) attack range with C-V2X           — paper γ: 35.2 / ~98 / 100 %
* (c) LocTE TTL 20/10/5 s (wN), + mN@5s — paper γ: 46.8 / 46.2 / 37.4 / 97.9 %
* (d) inter-vehicle space 30/100/300 m  — paper γ: 46.8 / 47.8 / 44.7 %
* (e) road directions 1 vs 2            — paper γ: 46.8 / 58.3 %
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import FigureResult
from repro.experiments.runner import AbResult, run_ab

#: A runner executes one A/B setting, called as ``runner(config, *, runs)``.
#: The default is the in-memory :func:`~repro.experiments.runner.run_ab`;
#: the campaign planner injects a recording runner and the assembler a
#: store-backed one that feeds precomputed
#: :class:`~repro.experiments.runner.RunResult`\ s instead of simulating.
AbRunner = Callable[..., AbResult]
from repro.radio.technology import DSRC, RadioTechnology, RangeClass

RANGE_LABELS = (
    ("wN", RangeClass.NLOS_WORST),
    ("mN", RangeClass.NLOS_MEDIAN),
    ("mL", RangeClass.LOS_MEDIAN),
)


def _base(
    technology: RadioTechnology, duration: float, seed: int
) -> ExperimentConfig:
    return ExperimentConfig.inter_area_default(
        technology=technology, duration=duration, seed=seed
    )


def _sweep_ranges(
    figure_id: str,
    technology: RadioTechnology,
    *,
    runs: int,
    duration: float,
    seed: int,
    runner: AbRunner = run_ab,
) -> FigureResult:
    result = FigureResult(
        figure_id=figure_id,
        title=f"inter-area attack vs attack range ({technology.name})",
    )
    base = _base(technology, duration, seed)
    for label, range_class in RANGE_LABELS:
        config = base.with_(
            attack=dataclasses.replace(
                base.attack, attack_range=technology.range_for(range_class)
            ),
            label=f"{technology.name}-{label}",
        )
        result.add(label, runner(config, runs=runs))
    return result


def fig7a(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """Attack ranges with DSRC."""
    return _sweep_ranges(
        "Fig7a",
        DSRC,
        runs=runs,
        duration=duration,
        seed=seed,
        runner=runner,
    )


def fig7b(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """Attack ranges with C-V2X."""
    from repro.radio.technology import CV2X

    return _sweep_ranges(
        "Fig7b",
        CV2X,
        runs=runs,
        duration=duration,
        seed=seed,
        runner=runner,
    )


def fig7c(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """LocTE TTL sweep (DSRC, worst-NLoS attacker, plus mN @ TTL 5 s)."""
    result = FigureResult(
        figure_id="Fig7c", title="inter-area attack vs LocTE TTL (DSRC, wN)"
    )
    base = _base(DSRC, duration, seed)
    for ttl in (20.0, 10.0, 5.0):
        config = base.with_(
            geonet=dataclasses.replace(base.geonet, loct_ttl=ttl),
            label=f"ttl{ttl:.0f}",
        )
        result.add(f"ttl={ttl:.0f}s", runner(config, runs=runs))
    # The paper's extra series: a median-NLoS attacker still intercepts
    # almost everything even at the shortest TTL.
    config = base.with_(
        geonet=dataclasses.replace(base.geonet, loct_ttl=5.0),
        attack=dataclasses.replace(base.attack, attack_range=DSRC.nlos_median_m),
        label="ttl5-mN",
    )
    result.add("ttl=5s,mN", runner(config, runs=runs))
    return result


def fig7d(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """Inter-vehicle space sweep (DSRC, worst-NLoS attacker)."""
    result = FigureResult(
        figure_id="Fig7d", title="inter-area attack vs inter-vehicle space (DSRC, wN)"
    )
    base = _base(DSRC, duration, seed)
    for spacing in (30.0, 100.0, 300.0):
        config = base.with_(
            road=dataclasses.replace(base.road, inter_vehicle_space=spacing),
            label=f"i{spacing:.0f}",
        )
        result.add(f"i={spacing:.0f}m", runner(config, runs=runs))
    return result


def fig7e(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """Single- vs two-direction road (DSRC, worst-NLoS attacker)."""
    result = FigureResult(
        figure_id="Fig7e", title="inter-area attack vs road directions (DSRC, wN)"
    )
    base = _base(DSRC, duration, seed)
    for directions in (1, 2):
        config = base.with_(
            road=dataclasses.replace(base.road, directions=directions),
            label=f"dir{directions}",
        )
        result.add(
            f"{directions} direction(s)",
            runner(config, runs=runs),
        )
    return result

