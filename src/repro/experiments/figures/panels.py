"""Shared builders of the paper's A/B figures.

Fig 7 (inter-area interception) and Fig 9 (intra-area blockage) apply the
same one-parameter panels to the two attacks, and Fig 8 / Fig 10 overlay
the cumulative drop of named scenarios of each.  The builders here return
:class:`~repro.experiments.sweep.AbTarget`\\ s; the figure modules only
say which attack, which attacker and which levels.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import cumulative_table
from repro.experiments.sweep import AbTarget, attack_base, figure
from repro.radio.technology import CV2X, DSRC, RadioTechnology, RangeClass

#: Series label and range class of the attack ranges the paper sweeps.
RANGE_LABELS = (
    ("wN", RangeClass.NLOS_WORST),
    ("mN", RangeClass.NLOS_MEDIAN),
    ("mL", RangeClass.LOS_MEDIAN),
)

#: A panel's levels: the labelled configs derived from the base setting.
Levels = Callable[[ExperimentConfig], List[Tuple[str, ExperimentConfig]]]


def with_range(base: ExperimentConfig, attack_range: float) -> ExperimentConfig:
    """``base`` with the attacker's range replaced."""
    return base.with_(
        attack=dataclasses.replace(base.attack, attack_range=attack_range)
    )


def attack_ranges(technology: RadioTechnology) -> Levels:
    """The wN / mN / mL attacker of one radio technology."""
    return lambda base: [
        (label, with_range(base, technology.range_for(range_class)))
        for label, range_class in RANGE_LABELS
    ]


def ttl(base: ExperimentConfig, seconds: float) -> ExperimentConfig:
    """``base`` with a LocTE TTL of ``seconds``."""
    return base.with_(geonet=dataclasses.replace(base.geonet, loct_ttl=seconds))


def spacing(base: ExperimentConfig, metres: float) -> ExperimentConfig:
    """``base`` with ``metres`` of inter-vehicle space."""
    return base.with_(
        road=dataclasses.replace(base.road, inter_vehicle_space=metres)
    )


def road_directions(base: ExperimentConfig, count: int) -> ExperimentConfig:
    """``base`` on a road with ``count`` directions."""
    return base.with_(road=dataclasses.replace(base.road, directions=count))


def ttls(base: ExperimentConfig) -> List[Tuple[str, ExperimentConfig]]:
    """LocTE TTL 20 / 10 / 5 s."""
    return [
        (f"ttl={t:.0f}s", ttl(base, t))
        for t in (20.0, 10.0, 5.0)
    ]


def spacings(base: ExperimentConfig) -> List[Tuple[str, ExperimentConfig]]:
    """Inter-vehicle space 30 / 100 / 300 m."""
    return [
        (f"i={m:.0f}m", spacing(base, m))
        for m in (30.0, 100.0, 300.0)
    ]


def directions(base: ExperimentConfig) -> List[Tuple[str, ExperimentConfig]]:
    """A single- vs a two-direction road."""
    return [
        (f"{n} direction(s)", road_directions(base, n))
        for n in (1, 2)
    ]


def on_attack(
    attack: str,
    levels: Levels,
    render: Callable[..., Any],
    technology: RadioTechnology = DSRC,
) -> AbTarget:
    """A target whose settings are ``levels`` of the attack's default setting."""
    return AbTarget(
        lambda duration, seed: levels(
            attack_base(attack, technology, duration=duration, seed=seed)
        ),
        render,
    )


def attack_panels(
    prefix: str, attack: str, attacker: str, *, ttl_levels: Levels = ttls
) -> Tuple[AbTarget, ...]:
    """Panels a-e (attack range with DSRC and with C-V2X, LocTE TTL,
    inter-vehicle space, road directions) of one attack's figure.

    ``attacker`` names the default attacker of panels c-e.
    """

    def vs(panel_id: str, parameter: str, levels: Levels, technology=DSRC):
        setting = technology.name if panel_id in "ab" else f"DSRC, {attacker}"
        title = f"{attack} attack vs {parameter} ({setting})"
        return on_attack(
            attack, levels, figure(f"{prefix}{panel_id}", title), technology
        )

    return (
        vs("a", "attack range", attack_ranges(DSRC)),
        vs("b", "attack range", attack_ranges(CV2X), CV2X),
        vs("c", "LocTE TTL", ttl_levels),
        vs("d", "inter-vehicle space", spacings),
        vs("e", "road directions", directions),
    )


def cumulative_figure(
    figure_id: str,
    title: str,
    attack: str,
    scenarios: Callable[[ExperimentConfig], Dict[str, ExperimentConfig]],
) -> AbTarget:
    """Named scenarios of one attack plus their cumulative-drop table."""
    return on_attack(
        attack,
        lambda base: list(scenarios(base).items()),
        figure(
            figure_id,
            title,
            notes=lambda series: [
                cumulative_table(figure_id, series, bin_width=5.0)
            ],
        ),
    )
