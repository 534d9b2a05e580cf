"""Fig 9 — effectiveness of the *intra-area blockage attack*.

Panels mirror Fig 7 with the CBF flooding workload:

* (a) attack range wN/mN/mL with DSRC — paper λ: mN 38.5 %, mL weaker
* (b) attack range with C-V2X         — paper λ: mN 35.8 %
* (c) LocTE TTL 20/10/5 s (mN)        — paper λ: 38.5 / 38.2 / 37.9 % (flat)
* (d) inter-vehicle space sweep       — paper λ ≈ 38 % (flat)
* (e) road directions 1 vs 2          — paper λ: 38.5 / 38 %

plus the §IV-A text studies: the 500 m optimum, and blockage by source
location relative to the *fully covered area* (62.8 % inside vs 37.2 %
outside for a 500 m attacker against 486 m vehicles).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures.fig7 import AbRunner
from repro.experiments.reporting import FigureResult
from repro.experiments.runner import run_ab
from repro.radio.technology import CV2X, DSRC, RadioTechnology, RangeClass

RANGE_LABELS = (
    ("wN", RangeClass.NLOS_WORST),
    ("mN", RangeClass.NLOS_MEDIAN),
    ("mL", RangeClass.LOS_MEDIAN),
)


def _base(
    technology: RadioTechnology, duration: float, seed: int
) -> ExperimentConfig:
    return ExperimentConfig.intra_area_default(
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
        title=f"intra-area attack vs attack range ({technology.name})",
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


def fig9a(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """Attack ranges with DSRC."""
    return _sweep_ranges(
        "Fig9a",
        DSRC,
        runs=runs,
        duration=duration,
        seed=seed,
        runner=runner,
    )


def fig9b(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """Attack ranges with C-V2X."""
    return _sweep_ranges(
        "Fig9b",
        CV2X,
        runs=runs,
        duration=duration,
        seed=seed,
        runner=runner,
    )


def fig9c(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """LocTE TTL sweep — CBF does not consult the LocT, so λ stays flat."""
    result = FigureResult(
        figure_id="Fig9c", title="intra-area attack vs LocTE TTL (DSRC, mN)"
    )
    base = _base(DSRC, duration, seed)
    for ttl in (20.0, 10.0, 5.0):
        config = base.with_(
            geonet=dataclasses.replace(base.geonet, loct_ttl=ttl),
            label=f"ttl{ttl:.0f}",
        )
        result.add(f"ttl={ttl:.0f}s", runner(config, runs=runs))
    return result


def fig9d(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """Inter-vehicle space sweep (DSRC, median-NLoS attacker)."""
    result = FigureResult(
        figure_id="Fig9d", title="intra-area attack vs inter-vehicle space (DSRC, mN)"
    )
    base = _base(DSRC, duration, seed)
    for spacing in (30.0, 100.0, 300.0):
        config = base.with_(
            road=dataclasses.replace(base.road, inter_vehicle_space=spacing),
            label=f"i{spacing:.0f}",
        )
        result.add(f"i={spacing:.0f}m", runner(config, runs=runs))
    return result


def fig9e(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """Single- vs two-direction road (DSRC, median-NLoS attacker)."""
    result = FigureResult(
        figure_id="Fig9e", title="intra-area attack vs road directions (DSRC, mN)"
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


def attack_range_tuning(
    *,
    ranges=(400.0, 450.0, 500.0, 550.0, 600.0, 700.0),
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> FigureResult:
    """§IV-A text: tune the attack range around the 500 m optimum."""
    result = FigureResult(
        figure_id="Fig9-tuning", title="intra-area attack range tuning (DSRC)"
    )
    base = _base(DSRC, duration, seed)
    for attack_range in ranges:
        config = base.with_(
            attack=dataclasses.replace(base.attack, attack_range=attack_range),
            label=f"r{attack_range:.0f}",
        )
        result.add(
            f"range={attack_range:.0f}m",
            runner(config, runs=runs),
        )
    return result


@dataclass
class SourceLocationStudy:
    """§IV-A text: blockage split by source location (fully covered area)."""

    attack_range: float
    fully_covered_interval: Optional[tuple]
    inside_blockage: Optional[float]
    outside_blockage: Optional[float]
    inside_packets: int
    outside_packets: int

    def format(self) -> str:
        fca = (
            f"[{self.fully_covered_interval[0]:.0f}, "
            f"{self.fully_covered_interval[1]:.0f}]m"
            if self.fully_covered_interval
            else "(empty)"
        )
        def pct(v):
            return f"{v:.1%}" if v is not None else "n/a"

        return (
            f"source-location study (attack range {self.attack_range:.0f}m, "
            f"fully covered area {fca}):\n"
            f"  inside  FCA: blockage {pct(self.inside_blockage)} "
            f"({self.inside_packets} packets)\n"
            f"  outside FCA: blockage {pct(self.outside_blockage)} "
            f"({self.outside_packets} packets)"
        )


def source_location_study(
    *,
    attack_range: float = 500.0,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> SourceLocationStudy:
    """Compare blockage for sources inside vs outside the fully covered area.

    Outcomes of the seed-paired A and B runs are matched by generation order
    (the workload is identical by construction), so blockage is computed
    packet-by-packet.  Because the fully covered area is only ~28 m of a
    4 km road, a second run restricts packet sources to that interval so the
    "inside" estimate has samples (uniform source selection would land
    there a couple of times per hundred packets at best).
    """
    base = _base(DSRC, duration, seed)
    config = base.with_(
        attack=dataclasses.replace(base.attack, attack_range=attack_range),
        label=f"src-loc-{attack_range:.0f}",
    )
    inside_drops: List[float] = []
    outside_drops: List[float] = []

    def paired_drops(ab_result):
        for af_run, atk_run in zip(ab_result.af_runs, ab_result.atk_runs):
            for af_out, atk_out in zip(af_run.outcomes, atk_run.outcomes):
                drop = (
                    (af_out.success - atk_out.success) / af_out.success
                    if af_out.success > 0
                    else 0.0
                )
                yield af_out.in_fully_covered_area, drop

    ab = runner(config, runs=runs)
    for inside, drop in paired_drops(ab):
        (inside_drops if inside else outside_drops).append(drop)

    surplus = attack_range - config.vehicle_range
    if surplus > 0:
        fca_config = config.with_(
            workload=dataclasses.replace(
                config.workload,
                source_xmin=config.attacker_x - surplus,
                source_xmax=config.attacker_x + surplus,
            ),
            label=f"src-loc-fca-{attack_range:.0f}",
        )
        fca_ab = runner(fca_config, runs=runs)
        for inside, drop in paired_drops(fca_ab):
            if inside:
                inside_drops.append(drop)
    world_cfg = config
    from repro.core.vulnerability import VulnerabilityModel

    model = VulnerabilityModel(
        attacker_x=world_cfg.attacker_x,
        attack_range=attack_range,
        vehicle_range=world_cfg.vehicle_range,
        road_length=world_cfg.road.length,
    )
    return SourceLocationStudy(
        attack_range=attack_range,
        fully_covered_interval=model.fully_covered_interval(),
        inside_blockage=(
            sum(inside_drops) / len(inside_drops) if inside_drops else None
        ),
        outside_blockage=(
            sum(outside_drops) / len(outside_drops) if outside_drops else None
        ),
        inside_packets=len(inside_drops),
        outside_packets=len(outside_drops),
    )

