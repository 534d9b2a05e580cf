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

from repro.experiments.figures.panels import attack_panels, on_attack, with_range
from repro.experiments.sweep import figure

#: Attack ranges of the §IV-A tuning study around the 500 m optimum.
TUNING_RANGES = (400.0, 450.0, 500.0, 550.0, 600.0, 700.0)

#: Attack range of the source-location study: the 500 m optimum, just
#: above the 486 m DSRC vehicle range.
SOURCE_ATTACK_RANGE = 500.0

fig9a, fig9b, fig9c, fig9d, fig9e = attack_panels("Fig9", "intra-area", "mN")


def _tuning(base):
    return [
        (f"range={r:.0f}m", with_range(base, r))
        for r in TUNING_RANGES
    ]


#: §IV-A text: tune the attack range around the 500 m optimum.
attack_range_tuning = on_attack(
    "intra-area",
    _tuning,
    figure("Fig9-tuning", "intra-area attack range tuning (DSRC)"),
)


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


def _source_levels(base):
    """The study's setting, plus one with sources restricted to the fully
    covered area.

    That area is only ~28 m of a 4 km road, so uniform source selection
    would land there a couple of times per hundred packets at best; the
    second setting gives the "inside" estimate its samples.
    """
    config = with_range(base, SOURCE_ATTACK_RANGE)
    settings = [("all", config)]
    surplus = SOURCE_ATTACK_RANGE - config.vehicle_range
    if surplus > 0:
        fca_config = config.with_(
            workload=dataclasses.replace(
                config.workload,
                source_xmin=config.attacker_x - surplus,
                source_xmax=config.attacker_x + surplus,
            )
        )
        settings.append(("fca", fca_config))
    return settings


def _paired_drops(ab_result):
    """(source inside the fully covered area, drop) per packet.

    Outcomes of the seed-paired A and B runs are matched by generation
    order (the workload is identical by construction), so blockage is
    computed packet-by-packet.
    """
    for af_run, atk_run in zip(ab_result.af_runs, ab_result.atk_runs):
        for af_out, atk_out in zip(af_run.outcomes, atk_run.outcomes):
            drop = (
                (af_out.success - atk_out.success) / af_out.success
                if af_out.success > 0
                else 0.0
            )
            yield af_out.in_fully_covered_area, drop


def _source_render(results) -> SourceLocationStudy:
    from repro.core.vulnerability import VulnerabilityModel

    inside_drops: List[float] = []
    outside_drops: List[float] = []
    for key, ab in results:
        for inside, drop in _paired_drops(ab):
            if inside:
                inside_drops.append(drop)
            elif key == "all":
                outside_drops.append(drop)
    config = results[0][1].config
    attack_range = config.attack.attack_range
    model = VulnerabilityModel(
        attacker_x=config.attacker_x,
        attack_range=attack_range,
        vehicle_range=config.vehicle_range,
        road_length=config.road.length,
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


#: §IV-A text: blockage for sources inside vs outside the fully covered area.
source_location_study = on_attack("intra-area", _source_levels, _source_render)
