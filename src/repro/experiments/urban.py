"""Urban sweep: both attacks across scenario × DCC × forwarder.

The paper evaluates its attacks on a straight 4 000 m highway with plain
CBF and no congestion control.  This target re-runs the inter-area
interception and intra-area blockage A/B comparisons over the full
mitigation-relevant grid: {highway, urban Manhattan grid} × {DCC off, on}
× {CBF, S-FoT+}.  The questions it answers:

* does corner shadowing (urban) blunt or amplify each attack?  The
  attacker sits on-street with LoS down two corridors, while victim
  traffic is fragmented by NLoS corners;
* does DCC throttling change the attack picture (a gated forwarder is a
  free suppression the attacker didn't have to pay for);
* does S-FoT+'s duplicate-count cancellation actually resist the
  single-replay CBF suppression that powers the intra-area attack.

Levels are module constants so tests can shrink the grid by
monkeypatching: the sweep's settings read them when the campaign is
planned, and workers run the planned specs (see
:func:`repro.experiments.service.scheduler.run_service_campaign`).
:data:`URBAN_OVERRIDES` lets tests swap in a small grid.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Tuple

from repro.experiments.reporting import FigureSeries
from repro.experiments.sweep import AbTarget, attack_base, figure, grid

#: Attacks swept (each with its paper-default workload and attacker).
ATTACKS: Tuple[str, ...] = ("inter-area", "intra-area")

#: Road scenarios swept ("highway" is the paper's setting).
SCENARIOS: Tuple[str, ...] = ("highway", "urban")

#: DCC gate levels swept (False = the paper's uncongested-channel setting).
DCC_LEVELS: Tuple[bool, ...] = (False, True)

#: GBC forwarder variants swept ("cbf" is the paper's).
FORWARDERS: Tuple[str, ...] = ("cbf", "sfot+")

#: :class:`~repro.experiments.config.UrbanConfig` overrides applied to the
#: urban cells (empty = the 4×4 / 250 m defaults); tests shrink the grid
#: here.
URBAN_OVERRIDES: Dict[str, Any] = {}


def _settings(duration: float, seed: int):
    def cell(attack: str, scenario: str, dcc: bool, forwarder: str):
        config = attack_base(attack, duration=duration, seed=seed)
        if scenario == "urban":
            config = config.urbanized(**URBAN_OVERRIDES)
        return config.with_(
            geonet=replace(config.geonet, dcc_enabled=dcc, cbf_variant=forwarder)
        )

    return grid(cell, ATTACKS, SCENARIOS, DCC_LEVELS, FORWARDERS)


def _rows(series: List[FigureSeries]) -> List[str]:
    rows = []
    for entry in series:
        attack, scenario, dcc, forwarder = entry.label
        rows.append(
            f"  {attack:<10} {scenario:<7} "
            f"dcc={'on ' if dcc else 'off'} fwd={forwarder:<5} "
            f"{entry.comparison()}"
        )
    return rows


def _notes(series: List[FigureSeries]) -> List[str]:
    # (scenario, dcc, forwarder) of the paper's setting
    if any(entry.label[1:] == ("highway", False, "cbf") for entry in series):
        return [
            "the highway/dcc=off/cbf rows reproduce the paper's baseline setting"
        ]
    return []


#: Both attacks over :data:`SCENARIOS` × :data:`DCC_LEVELS` ×
#: :data:`FORWARDERS`, keyed ``(attack, scenario, dcc, forwarder)``.
urban_sweep = AbTarget(
    _settings,
    figure(
        "urban",
        "attack effectiveness across scenario x DCC x forwarder",
        legend="  (af = attack-free success, atk = attacked, drop = relative "
        "attack-induced loss)",
        rows=_rows,
        notes=_notes,
    ),
)
