"""Campaign planning, execution of one run, and assembly from the store.

A *campaign* regenerates a list of paper targets (``fig7a`` … ``overhead``)
on top of the persistent result store:

1. **Plan** — every target is expanded into its individual simulation runs
   (:class:`RunSpec`\\ s), by replaying the figure's own scenario
   enumeration with a recording runner.  A/B figure targets expand to one
   spec per ``(config, attacked, seed)``; whole-run targets (tables,
   Fig 12/13, overhead) expand to a single spec.
2. **Execute** — :func:`repro.experiments.service.scheduler.run_service_campaign`
   skips the specs already stored and hands the rest to N leased worker
   processes, each of which runs :func:`execute_spec` per job.
3. **Assemble** — each figure function runs again with a *store-backed*
   runner that feeds it the precomputed
   :class:`~repro.experiments.runner.RunResult`\\ s, so the rendered output
   is identical to a fresh in-memory run at the same seeds.

A re-issued campaign therefore costs only the runs that are missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    fig7,
    fig8,
    fig9,
    fig10,
    fig12,
    fig13,
    fig14,
    tables,
)
from repro.experiments.detect import detect_sweep
from repro.experiments.impairments import fault_sweep
from repro.experiments.metrics import BinnedRates
from repro.experiments.urban import urban_sweep
from repro.experiments.runner import (
    AbResult,
    RunResult,
    expand_jobs,
    run_single,
)
from repro.experiments.store import (
    ResultStoreBase,
    RunKey,
    config_hash,
)


class CampaignError(RuntimeError):
    """Raised on invalid campaign requests (unknown target, bad params)."""


class MissingRunError(CampaignError):
    """A figure asked the store for a run that is absent or failed."""

    def __init__(self, key: RunKey):
        self.key = key
        super().__init__(
            f"no stored result for {key.target} config={key.config_hash} "
            f"seed={key.seed} {'atk' if key.attacked else 'af'}"
        )


# ----------------------------------------------------------------------
# target registry
# ----------------------------------------------------------------------
#: A/B figure targets: name -> builder accepting (runs, duration,
#: processes, seed, runner) and returning an object with ``.format()``.
AB_TARGETS: Dict[str, Callable[..., Any]] = {
    "fig7a": fig7.fig7a,
    "fig7b": fig7.fig7b,
    "fig7c": fig7.fig7c,
    "fig7d": fig7.fig7d,
    "fig7e": fig7.fig7e,
    "fig8": fig8.figure8,
    "fig9a": fig9.fig9a,
    "fig9b": fig9.fig9b,
    "fig9c": fig9.fig9c,
    "fig9d": fig9.fig9d,
    "fig9e": fig9.fig9e,
    "fig9-tuning": fig9.attack_range_tuning,
    "fig9-source-location": fig9.source_location_study,
    "fig10": fig10.figure10,
    "fig14a": fig14.fig14a,
    "fig14b": fig14.fig14b,
    "faults": fault_sweep,
    "urban": urban_sweep,
    "detect": detect_sweep,
}


def _overhead_text(params: Dict[str, Any]) -> str:
    from repro.experiments.overhead import format_analysis
    from repro.experiments.world import World

    config = ExperimentConfig.inter_area_default(
        duration=params["duration"], seed=params["seed"]
    )
    world = World(config, attacked=False, seed=params["seed"])
    world.run()
    return format_analysis(world.channel.stats, duration=params["duration"])


#: Whole-run targets: name -> (param builder, renderer).  The param dict is
#: both the worker's input and the content hashed into the store key.
TEXT_TARGETS: Dict[
    str,
    Tuple[Callable[..., Dict[str, Any]], Callable[[Dict[str, Any]], str]],
] = {
    "table1": (lambda runs, duration, seed: {}, lambda p: tables.table1()),
    "table2": (lambda runs, duration, seed: {}, lambda p: tables.table2()),
    "fig12a": (
        lambda runs, duration, seed: {
            "duration": duration,
            "seed": seed,
            "spawn_gap": fig12.DEFAULT_SPAWN_GAP,
        },
        lambda p: fig12.fig12a(
            duration=p["duration"], seed=p["seed"], spawn_gap=p["spawn_gap"]
        ).format(),
    ),
    "fig12b": (
        lambda runs, duration, seed: {
            "duration": duration,
            "seed": seed,
            "spawn_gap": fig12.DEFAULT_SPAWN_GAP,
        },
        lambda p: fig12.fig12b(
            duration=p["duration"], seed=p["seed"], spawn_gap=p["spawn_gap"]
        ).format(),
    ),
    "fig13": (
        lambda runs, duration, seed: {
            "duration": fig13.DEFAULT_DURATION,
            "seed": seed,
        },
        lambda p: fig13.fig13(seed=p["seed"], duration=p["duration"]).format(),
    ),
    "overhead": (
        lambda runs, duration, seed: {"duration": duration, "seed": seed},
        _overhead_text,
    ),
}

#: Every atomic campaign target, in canonical (run_remaining-superset) order.
CAMPAIGN_TARGETS: List[str] = [
    "table1",
    "table2",
    "fig7a",
    "fig7b",
    "fig7c",
    "fig7d",
    "fig7e",
    "fig8",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9d",
    "fig9e",
    "fig9-tuning",
    "fig9-source-location",
    "fig10",
    "fig12a",
    "fig12b",
    "fig13",
    "fig14a",
    "fig14b",
    "overhead",
    "faults",
    "urban",
    "detect",
]

#: CLI conveniences: aggregate names expanded to atomic targets.
TARGET_ALIASES: Dict[str, List[str]] = {
    "all": list(CAMPAIGN_TARGETS),
    "fig7": ["fig7a", "fig7b", "fig7c", "fig7d", "fig7e"],
    "fig9": ["fig9a", "fig9b", "fig9c", "fig9d", "fig9e"],
}


def resolve_targets(names: Sequence[str]) -> List[str]:
    """Expand aliases and validate; preserves order, drops duplicates."""
    resolved: List[str] = []
    for name in names:
        expansion = TARGET_ALIASES.get(name, [name])
        for target in expansion:
            if target not in AB_TARGETS and target not in TEXT_TARGETS:
                known = ", ".join(CAMPAIGN_TARGETS + sorted(TARGET_ALIASES))
                raise CampaignError(
                    f"unknown campaign target {name!r} (known: {known})"
                )
            if target not in resolved:
                resolved.append(target)
    return resolved


# ----------------------------------------------------------------------
# run specs / planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One schedulable unit of campaign work."""

    target: str
    kind: str  # "ab" | "text"
    seed: int
    attacked: bool
    config: Optional[ExperimentConfig] = None  # ab specs
    params: Optional[Tuple[Tuple[str, Any], ...]] = None  # text specs

    @property
    def key(self) -> RunKey:
        if self.kind == "ab":
            digest = config_hash(self.config)
        else:
            digest = config_hash(dict(self.params or ()))
        return RunKey(
            target=self.target,
            config_hash=digest,
            seed=self.seed,
            attacked=self.attacked,
        )

    def describe(self) -> str:
        label = ""
        if self.config is not None and self.config.label:
            label = f" {self.config.label}"
        mode = " atk" if self.attacked else " af"
        return f"{self.target}{label} s{self.seed}{mode}"


def _placeholder_ab(config: ExperimentConfig, runs: int) -> AbResult:
    """A structurally-valid empty AbResult for the planning pass."""
    empty = lambda seed, attacked: RunResult(  # noqa: E731
        seed=seed,
        attacked=attacked,
        binned=BinnedRates(bin_width=config.bin_width, rates=[]),
        overall_rate=0.0,
        n_packets=0,
        outcomes=[],
        extras={},
    )
    jobs = expand_jobs(config, runs)
    return AbResult(
        config=config,
        af_runs=[empty(s, False) for _c, atk, s in jobs if not atk],
        atk_runs=[empty(s, True) for _c, atk, s in jobs if atk],
    )


def plan_target(
    target: str, *, runs: int, duration: float, seed: int
) -> List[RunSpec]:
    """The RunSpecs a target needs, in deterministic order."""
    if target in TEXT_TARGETS:
        build_params, _render = TEXT_TARGETS[target]
        params = build_params(runs, duration, seed)
        return [
            RunSpec(
                target=target,
                kind="text",
                seed=seed,
                attacked=False,
                params=tuple(sorted(params.items())),
            )
        ]
    if target not in AB_TARGETS:
        raise CampaignError(f"unknown campaign target {target!r}")
    specs: List[RunSpec] = []

    def recording_runner(
        config: ExperimentConfig, *, runs: int, processes: int = 1
    ) -> AbResult:
        for cfg, attacked, run_seed in expand_jobs(config, runs):
            specs.append(
                RunSpec(
                    target=target,
                    kind="ab",
                    seed=run_seed,
                    attacked=attacked,
                    config=cfg,
                )
            )
        return _placeholder_ab(config, runs)

    AB_TARGETS[target](
        runs=runs, duration=duration, processes=1, seed=seed,
        runner=recording_runner,
    )
    return specs


def plan_campaign(
    targets: Sequence[str], *, runs: int, duration: float, seed: int
) -> List[RunSpec]:
    """Expand targets into deduplicated RunSpecs (first occurrence wins)."""
    seen = set()
    specs: List[RunSpec] = []
    for target in resolve_targets(targets):
        for spec in plan_target(target, runs=runs, duration=duration, seed=seed):
            if spec.key not in seen:
                seen.add(spec.key)
                specs.append(spec)
    return specs


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def execute_spec(spec: RunSpec, checkpoints: Optional[Tuple[Any, float]] = None) -> Any:
    """Execute one spec in the current process.

    Module-level so service workers resolve it by name at every job —
    tests may substitute it (via fork inheritance) to inject crashes,
    hangs and counters.

    Id counters are reset first, so the produced record is bit-identical
    whether this is a worker's first job or its N-th.  (A checkpoint
    restore reinstates the counters *after* the reset, continuing the
    original process's ids.)

    ``checkpoints`` — an optional ``(store, interval)`` pair.  When given,
    ``ab`` specs execute through
    :func:`~repro.experiments.checkpointing.run_single_resumable`:
    snapshots every ``interval`` simulation seconds, automatic resume from
    the newest valid checkpoint, byte-identical records either way.
    ``text`` specs (cheap renders) never checkpoint.
    """
    from repro.experiments.world import reset_id_counters

    reset_id_counters()
    if spec.kind == "text":
        _params, render = TEXT_TARGETS[spec.target]
        return render(dict(spec.params or ()))
    if checkpoints is not None:
        from repro.experiments.checkpointing import run_single_resumable

        store, interval = checkpoints
        return run_single_resumable(
            spec.config,
            attacked=spec.attacked,
            seed=spec.seed,
            store=store,
            key=spec.key,
            interval=interval,
        )
    return run_single(spec.config, attacked=spec.attacked, seed=spec.seed)


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """What a campaign did: counts, failures and wall time."""

    planned: int = 0
    skipped: int = 0
    executed: int = 0
    retried: int = 0
    failed: List[Tuple[RunSpec, str]] = field(default_factory=list)
    wall_time_s: float = 0.0
    outputs: Dict[str, str] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    #: target -> coverage note for artefacts assembled from a partial store
    partial_targets: Dict[str, str] = field(default_factory=dict)
    workers: int = 0
    #: workers started again after one exited before the queue drained
    respawned: int = 0

    @property
    def ok(self) -> bool:
        return not self.failed and not self.errors

    def summary(self) -> str:
        return (
            f"campaign: {self.planned} runs planned, {self.skipped} skipped "
            f"(already stored), {self.executed} executed, {self.retried} "
            f"retried, {len(self.failed)} failed in {self.wall_time_s:.1f}s"
        )


def _store_result(store: ResultStoreBase, spec: RunSpec, result: Any) -> None:
    if spec.kind == "text":
        store.put_text(spec.key, result, params=dict(spec.params or ()))
    else:
        store.put_run(spec.key, result, config=spec.config)


# ----------------------------------------------------------------------
# assembly: figures from precomputed store results
# ----------------------------------------------------------------------
def store_runner(
    store: ResultStoreBase, target: str, *, partial: bool = False, coverage=None
):
    """An AbRunner that assembles AbResults from stored RunResults.

    With ``partial=True`` missing runs are skipped instead of raising, so
    figures render from whatever fraction of the campaign is stored — the
    streaming-aggregation path behind ``--partial`` and the status view.
    A seed-paired A/B setting only keeps pairs whose *both* sides are
    stored (a lone attacked run would bias the comparison).  ``coverage``
    (a 2-item list) accumulates ``[stored, planned]`` run counts.
    """

    def runner(
        config: ExperimentConfig, *, runs: int, processes: int = 1
    ) -> AbResult:
        by_seed: Dict[int, Dict[bool, Optional[RunResult]]] = {}
        attacks_planned = False
        planned = 0
        for cfg, attacked, seed in expand_jobs(config, runs):
            key = RunKey.for_config(target, cfg, seed=seed, attacked=attacked)
            result = store.get_run(key)
            planned += 1
            attacks_planned = attacks_planned or attacked
            if result is None and not partial:
                raise MissingRunError(key)
            by_seed.setdefault(seed, {})[attacked] = result
        af_runs: List[RunResult] = []
        atk_runs: List[RunResult] = []
        stored = 0
        for seed in sorted(by_seed):
            pair = by_seed[seed]
            stored += sum(1 for r in pair.values() if r is not None)
            complete = pair.get(False) is not None and (
                not attacks_planned or pair.get(True) is not None
            )
            if not complete:
                continue
            af_runs.append(pair[False])
            if attacks_planned:
                atk_runs.append(pair[True])
        if coverage is not None:
            coverage[0] += stored
            coverage[1] += planned
        return AbResult(config=config, af_runs=af_runs, atk_runs=atk_runs)

    return runner


def assemble_target(
    target: str,
    store: ResultStoreBase,
    *,
    runs: int,
    duration: float,
    seed: int,
    partial: bool = False,
):
    """Render a target's artefact purely from stored results.

    Raises :class:`MissingRunError` when a required run is absent (e.g.
    recorded as failed) — re-issue the campaign to fill the gaps.  With ``partial=True`` an A/B target renders from the
    stored subset instead and the return value becomes ``(text, note)``
    where ``note`` states the coverage (``"partial: 17/48 runs
    stored"``); a target with *zero* stored runs still raises.
    """
    if target in TEXT_TARGETS:
        spec = plan_target(target, runs=runs, duration=duration, seed=seed)[0]
        text = store.get_text(spec.key)
        if text is None:
            raise MissingRunError(spec.key)
        return (text, "complete") if partial else text
    if target not in AB_TARGETS:
        raise CampaignError(f"unknown campaign target {target!r}")
    coverage = [0, 0]
    artefact = AB_TARGETS[target](
        runs=runs,
        duration=duration,
        processes=1,
        seed=seed,
        runner=store_runner(store, target, partial=partial, coverage=coverage),
    )
    if not partial:
        return artefact.format()
    stored, planned = coverage
    if stored == 0 and planned > 0:
        first = plan_target(target, runs=runs, duration=duration, seed=seed)[0]
        raise MissingRunError(first.key)
    from repro.experiments.reporting import coverage_note

    note = coverage_note(stored, planned)
    text = artefact.format()
    if stored < planned:
        text = f"{text}\n  note: {note}"
    return text, note
