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

Levels are module constants so tests can shrink the grid by monkeypatching
(worker processes inherit the patched values through fork), and
:data:`URBAN_OVERRIDES` lets tests swap in a small grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures.fig7 import AbRunner
from repro.experiments.reporting import fmt_pct
from repro.experiments.runner import AbResult, run_ab

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


@dataclass
class UrbanCell:
    """One (attack, scenario, dcc, forwarder) grid point."""

    attack: str
    scenario: str
    dcc: bool
    forwarder: str
    result: AbResult

    def row(self) -> str:
        r = self.result
        return (
            f"  {self.attack:<10} {self.scenario:<7} "
            f"dcc={'on ' if self.dcc else 'off'} fwd={self.forwarder:<5} "
            f"af={fmt_pct(r.af_overall)}  atk={fmt_pct(r.atk_overall)}  "
            f"drop={fmt_pct(r.drop_rate())} "
            f"(abs {fmt_pct(r.drop_rate(relative=False))})"
        )


@dataclass
class UrbanSweepResult:
    """The full attack × scenario × DCC × forwarder grid."""

    cells: List[UrbanCell]

    def get(
        self, attack: str, scenario: str, dcc: bool, forwarder: str
    ) -> UrbanCell:
        for cell in self.cells:
            if (
                cell.attack == attack
                and cell.scenario == scenario
                and cell.dcc == dcc
                and cell.forwarder == forwarder
            ):
                return cell
        raise KeyError((attack, scenario, dcc, forwarder))

    def format(self) -> str:
        lines = [
            "urban: attack effectiveness across scenario x DCC x forwarder",
            "  (af = attack-free success, atk = attacked, drop = relative "
            "attack-induced loss)",
        ]
        lines.extend(cell.row() for cell in self.cells)
        if any(
            c.scenario == "highway" and not c.dcc and c.forwarder == "cbf"
            for c in self.cells
        ):
            lines.append(
                "  note: the highway/dcc=off/cbf rows reproduce the paper's "
                "baseline setting"
            )
        return "\n".join(lines)


def _base_config(attack: str, *, duration: float, seed: int) -> ExperimentConfig:
    if attack == "inter-area":
        return ExperimentConfig.inter_area_default(duration=duration, seed=seed)
    return ExperimentConfig.intra_area_default(duration=duration, seed=seed)


def urban_sweep(
    *,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    runner: AbRunner = run_ab,
) -> UrbanSweepResult:
    """Sweep both attacks over :data:`SCENARIOS` × :data:`DCC_LEVELS` ×
    :data:`FORWARDERS`."""
    cells: List[UrbanCell] = []
    for attack in ATTACKS:
        base = _base_config(attack, duration=duration, seed=seed)
        for scenario in SCENARIOS:
            scen_cfg = (
                base.urbanized(**URBAN_OVERRIDES)
                if scenario == "urban"
                else base
            )
            for dcc in DCC_LEVELS:
                for forwarder in FORWARDERS:
                    config = scen_cfg.with_(
                        geonet=replace(
                            scen_cfg.geonet,
                            dcc_enabled=dcc,
                            cbf_variant=forwarder,
                        ),
                        label=(
                            f"{attack}-{scenario}-"
                            f"dcc{'on' if dcc else 'off'}-{forwarder}"
                        ),
                    )
                    result = runner(config, runs=runs)
                    cells.append(
                        UrbanCell(
                            attack=attack,
                            scenario=scenario,
                            dcc=dcc,
                            forwarder=forwarder,
                            result=result,
                        )
                    )
    return UrbanSweepResult(cells=cells)
