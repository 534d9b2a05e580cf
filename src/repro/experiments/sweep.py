"""Declarative A/B targets: a list of settings plus a renderer.

Every A/B figure and sweep is data.  ``settings(duration, seed)`` lists
its seed-paired A/B settings as ``(key, ExperimentConfig)`` pairs in a
fixed order, and ``render([(key, AbResult)])`` turns their results into
an artefact with ``format()``.  The one list drives all three ways of
producing the artefact:

* calling the target simulates every setting serially in memory with
  :func:`~repro.experiments.runner.run_ab`;
* the campaign planner expands the settings into store keys
  (:func:`repro.experiments.campaign.plan_target`);
* the assembler renders from stored runs
  (:func:`repro.experiments.campaign.assemble_target`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import FigureResult, FigureSeries
from repro.experiments.runner import AbResult, run_ab
from repro.radio.technology import DSRC, RadioTechnology

#: One A/B setting of a target: its key in the rendered artefact (a
#: series label, or a tuple of sweep levels) and the config it runs.
Setting = Tuple[Hashable, ExperimentConfig]


@dataclass(frozen=True)
class AbTarget:
    """An A/B artefact: its settings and the renderer of their results."""

    settings: Callable[[float, int], List[Setting]]
    render: Callable[[List[Tuple[Hashable, AbResult]]], Any]

    def evaluate(
        self,
        ab: Callable[[ExperimentConfig], AbResult],
        *,
        duration: float,
        seed: int,
    ) -> Any:
        """Render from ``ab(config)``, called once per setting in order."""
        return self.render(
            [(key, ab(config)) for key, config in self.settings(duration, seed)]
        )

    def __call__(
        self, *, runs: int = 3, duration: float = 200.0, seed: int = 1
    ) -> Any:
        """Simulate every setting serially in memory and render."""
        return self.evaluate(
            lambda config: run_ab(config, runs=runs), duration=duration, seed=seed
        )


def grid(make: Callable[..., ExperimentConfig], *axes: Sequence) -> List[Setting]:
    """One setting per point of the axes' cross product, keyed by the
    tuple of its levels; ``make(*levels)`` builds the point's config."""
    return [(levels, make(*levels)) for levels in itertools.product(*axes)]


def figure(
    figure_id: str,
    title: str,
    *,
    legend: Optional[str] = None,
    rows: Optional[Callable[[List[FigureSeries]], List[str]]] = None,
    notes: Optional[Callable[[List[FigureSeries]], List[str]]] = None,
) -> Callable[[List[Tuple[Hashable, AbResult]]], FigureResult]:
    """A renderer of a :class:`FigureResult` with one series per setting."""

    def render(results: List[Tuple[Hashable, AbResult]]) -> FigureResult:
        result = FigureResult(figure_id, title, legend=legend, rows=rows)
        for key, ab in results:
            result.add(key, ab)
        if notes is not None:
            result.notes.extend(notes(result.series))
        return result

    return render


def attack_base(
    attack: str,
    technology: RadioTechnology = DSRC,
    *,
    duration: float,
    seed: int,
) -> ExperimentConfig:
    """The paper's default setting of the ``"inter-area"`` interception
    or the ``"intra-area"`` blockage attack (§IV-A)."""
    if attack == "inter-area":
        default = ExperimentConfig.inter_area_default
    elif attack == "intra-area":
        default = ExperimentConfig.intra_area_default
    else:
        raise ValueError(
            f"unknown attack {attack!r}; expected 'inter-area' or 'intra-area'"
        )
    return default(technology=technology, duration=duration, seed=seed)
