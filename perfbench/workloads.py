"""The benchmark's workloads, built from ``repro``'s public API only.

Each workload turns ``--seed`` into a fixed set of input *variants* (one
sub-seed each) and runs one variant per *iteration*: set-up (timed apart),
the simulation itself, and the output checks that hold for a single
iteration.  Iterations cycle through the variants, so the harness can check
that an iteration repeats the simulated counters of the earlier iteration
with the same variant.  Checks that need more packets than one short run
yields (the paper's γ/λ bands) run once over one iteration per variant,
the way the paper pools repetitions.

Every timed call goes through a :class:`hostspeed.HostClock`, which gives
its host seconds and the same scaled to a reference host speed.  A world
runs in segments of simulated time a tenth to a quarter of a host second
long, so that the probes around each segment follow the host's speed
closely; the segments fire the same events as one run to the end.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from hostspeed import HostClock, perf
from repro.experiments import campaign as campaign_module
from repro.experiments import runner
from repro.experiments.campaign import plan_campaign
from repro.experiments.config import ExperimentConfig
from repro.experiments.service import scheduler
from repro.experiments.sqlite_store import SqliteResultStore
from repro.experiments.world import World, reset_id_counters
from repro.observability.ledger import PacketLedger

#: A check: (name, passed, detail).
Check = Tuple[str, bool, str]


@dataclass
class Iteration:
    """What one iteration measured and produced."""

    variant: int
    #: Set-up and run time, scaled to the reference host speed.
    setup_s: float
    wall_s: float
    #: The same set-up and run time in host seconds.
    host_setup_s: float
    host_wall_s: float
    #: Simulated seconds completed, summed over the iteration's runs.
    sim_s: float
    runs: int
    #: Simulated counters that must repeat exactly for a variant.
    counters: Dict[str, object]
    checks: List[Check]
    results: List[runner.RunResult] = field(default_factory=list)
    #: Largest peak RSS of the campaign workers (MB); 0 without workers.
    worker_peak_mb: float = 0.0


def _batched(config: ExperimentConfig) -> ExperimentConfig:
    """Request the batched fleet while the config still has the knob."""
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    if "fleet_use_batched" in names:
        return config.with_(fleet_use_batched=True)
    return config


def _run_counters(results: List[runner.RunResult]) -> Dict[str, object]:
    counters: Dict[str, object] = {}
    for i, r in enumerate(results):
        for name in ("events_fired", "frames_sent", "frames_delivered"):
            counters[f"{i}.{name}"] = r.extras.get(name)
        counters[f"{i}.packets"] = r.n_packets
        counters[f"{i}.reception"] = r.overall_rate
    return counters


def _band(name: str, value, lo: float, hi: float) -> Check:
    ok = value is not None and lo <= value <= hi
    return (name, ok, f"{value!r} in [{lo}, {hi}]")


def _pooled(config, iterations) -> runner.AbResult:
    """One A/B result pooling the first iteration of every variant."""
    firsts = {it.variant: it for it in reversed(iterations)}
    results = [r for it in firsts.values() for r in it.results]
    return runner.AbResult(
        config=config,
        af_runs=[r for r in results if not r.attacked],
        atk_runs=[r for r in results if r.attacked],
    )


class Workload:
    """A named workload; ``iterate`` runs one iteration."""

    name = ""
    #: Simulated seconds per run.
    duration = 0.0
    #: Distinct input sets the iterations cycle through.
    variants = 4

    def __init__(self, seed: int, work_dir: Path, duration: float | None = None):
        self.seed = seed
        self.work_dir = work_dir
        if duration is not None:
            self.duration = duration

    def sub_seed(self, variant: int) -> int:
        return self.seed * self.variants + variant

    def iterate(self, index: int) -> Iteration:
        raise NotImplementedError

    def pooled_checks(self, iterations: List[Iteration]) -> List[Check]:
        """Checks over one iteration per variant (run once, at the end)."""
        return []


class WorldWorkload(Workload):
    """Seed-paired worlds built and run in this process."""

    modes: Tuple[bool, ...] = (False, True)
    with_ledger = False
    #: Simulated seconds per timed segment of a run.
    segment = 2.5

    def __init__(self, seed: int, work_dir: Path, duration: float | None = None):
        super().__init__(seed, work_dir, duration)
        self.clock = HostClock()

    def config(self) -> ExperimentConfig:
        raise NotImplementedError

    def iterate(self, index: int) -> Iteration:
        variant = index % self.variants
        config = self.config()
        clock = self.clock
        segments = math.ceil(self.duration / self.segment - 1e-9)
        results, ledgers = [], []
        setup = wall = host_setup = host_wall = 0.0
        for attacked in self.modes:
            reset_id_counters()
            ledger = PacketLedger() if self.with_ledger else None
            world, host, scaled = clock.time(
                World, config, attacked=attacked, seed=self.sub_seed(variant),
                ledger=ledger,
            )
            host_setup += host
            setup += scaled
            for k in range(1, segments + 1):
                _, host, scaled = clock.time(
                    world.run, min(self.duration, k * self.segment)
                )
                host_wall += host
                wall += scaled
            result, host, scaled = clock.time(runner.summarize_world, world)
            host_wall += host
            wall += scaled
            results.append(result)
            ledgers.append(ledger)
        return Iteration(
            variant=variant,
            setup_s=setup,
            wall_s=wall,
            host_setup_s=host_setup,
            host_wall_s=host_wall,
            sim_s=self.duration * len(results),
            runs=len(results),
            counters=_run_counters(results),
            checks=self.checks(results, ledgers),
            results=results,
        )

    def checks(self, results, ledgers) -> List[Check]:
        return [
            (f"packets_generated_{i}", r.n_packets > 0, f"{r.n_packets} packets")
            for i, r in enumerate(results)
        ]


class HighwayAb(WorldWorkload):
    """Fig 7a wN A/B pair on the default per-object path, where beacon
    delivery and reception dominate and GF is light at 1 pkt/s."""

    name = "highway-ab"
    duration = 10.0

    def config(self) -> ExperimentConfig:
        return ExperimentConfig.inter_area_default(duration=self.duration)

    def pooled_checks(self, iterations):
        ab = _pooled(self.config(), iterations)
        # EXPERIMENTS.md Fig 7a wN: gamma 40.9 %, attack-free 45-60 % over
        # 200 s; a few 10 s runs spread much wider.
        return [
            _band("gamma", ab.drop_rate(), 0.1, 0.8),
            _band("attack_free_reception", ab.af_overall, 0.3, 1.0),
        ]


class UrbanGrid(WorldWorkload):
    """Urbanized Fig 7a, attacked, on the batched fleet: corner shadowing
    and grid IDM traffic dominate, and no highway workload calls them."""

    name = "urban-grid"
    duration = 5.0
    modes = (True,)
    segment = 0.5
    # Urban runs of different sub-seeds differ by up to 15 % in host time,
    # so a run averages over more of them.
    variants = 8

    def config(self) -> ExperimentConfig:
        return _batched(
            ExperimentConfig.inter_area_default(duration=self.duration)
        ).urbanized()

    def pooled_checks(self, iterations):
        ab = _pooled(self.config(), iterations)
        return [_band("packets_delivered", ab.atk_overall, 1e-9, 1.0)]


class CbfFlood(WorldWorkload):
    """Fig 9a mN blocker A/B pair at 10 floods/s with a packet ledger on the
    batched fleet: CBF contention, GBC verify and the ledger taps."""

    name = "cbf-flood"
    duration = 5.0
    with_ledger = True

    def config(self) -> ExperimentConfig:
        config = _batched(ExperimentConfig.intra_area_default(duration=self.duration))
        return config.with_(
            workload=dataclasses.replace(config.workload, packet_interval=0.1)
        )

    def checks(self, results, ledgers):
        checks = []
        for i, (r, ledger) in enumerate(zip(results, ledgers)):
            terminal = sum(ledger.outcome_totals().values())
            checks.append((
                f"ledger_conserves_{i}",
                terminal == r.n_packets and r.n_packets > 0,
                f"{terminal} terminal outcomes for {r.n_packets} packets",
            ))
        return checks

    def pooled_checks(self, iterations):
        ab = _pooled(self.config(), iterations)
        # EXPERIMENTS.md Fig 9a mN: lambda 37.8 %, attack-free CBF >= 93 %.
        return [
            _band("lambda", ab.drop_rate(), 0.3, 0.45),
            _band("attack_free_reception", ab.af_overall, 0.93, 1.0),
        ]


class Campaign(Workload):
    """fig7a through the lease service with 2 workers, a fresh SQLite store
    and checkpoints: the only workload of the service, store and checkpoint
    layers, and the one that yields runs/hour of a campaign."""

    name = "campaign"
    duration = 5.0
    targets = ("fig7a",)
    workers = 2
    #: One checkpoint per run, and a few heartbeats per job.
    checkpoint_interval = 2.5
    heartbeat_interval = 0.25

    def __init__(self, seed, work_dir, duration=None):
        super().__init__(seed, work_dir, duration)
        self.settings = scheduler.WorkerSettings(
            poll_interval=0.05,
            heartbeat_interval=self.heartbeat_interval,
            checkpoint_interval=self.checkpoint_interval,
        )
        self.store_dir = work_dir / "campaign"
        self.jobs_dir = work_dir / "jobs"
        # The jobs whose stored results the checks read; not timed.
        self.specs = [
            plan_campaign(
                list(self.targets), runs=1, duration=self.duration,
                seed=self.sub_seed(variant),
            )
            for variant in range(self.variants)
        ]

    def iterate(self, index: int) -> Iteration:
        """Set-up is opening the store plus the service's own planning and
        queue seeding, up to the moment it starts its first worker.

        The workers inherit a wrapper of ``execute_spec`` over fork: each
        job runs under a HostClock of its worker, and the worker logs the
        job's host and scaled seconds and its own peak RSS.  Set-up and run
        are scaled by the host speed the jobs ran at.
        """
        variant = index % self.variants
        specs = self.specs[variant]
        shutil.rmtree(self.store_dir, ignore_errors=True)
        shutil.rmtree(self.jobs_dir, ignore_errors=True)
        self.jobs_dir.mkdir(parents=True)
        jobs_dir = self.jobs_dir
        spawned: List[float] = []
        spawn_worker = scheduler.spawn_worker
        execute_spec = campaign_module.execute_spec

        def timed_spawn(*args, **kwargs):
            spawned.append(perf())
            return spawn_worker(*args, **kwargs)

        @functools.wraps(execute_spec)
        def timed_execute(*args, **kwargs):
            result, host, scaled = HostClock().time(execute_spec, *args, **kwargs)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with open(jobs_dir / f"{os.getpid()}.jsonl", "a") as log:
                log.write(json.dumps([host, scaled, peak_kb]) + "\n")
            return result

        scheduler.spawn_worker = timed_spawn
        campaign_module.execute_spec = timed_execute
        store = None
        try:
            start = perf()
            store = SqliteResultStore(self.store_dir / "results.sqlite")
            report = scheduler.run_service_campaign(
                list(self.targets),
                store=store,
                workers=self.workers,
                runs=1,
                duration=self.duration,
                seed=self.sub_seed(variant),
                settings=self.settings,
            )
            host = perf() - start
            results = [store.get_run(spec.key) for spec in specs]
        finally:
            scheduler.spawn_worker = spawn_worker
            campaign_module.execute_spec = execute_spec
            if store is not None:
                store.close()
            shutil.rmtree(self.store_dir, ignore_errors=True)
        jobs = [
            json.loads(line)
            for path in sorted(jobs_dir.glob("*.jsonl"))
            for line in path.read_text().splitlines()
        ]
        # Without a finished job the checks below fail; leave times unscaled.
        speed = sum(j[1] for j in jobs) / sum(j[0] for j in jobs) if jobs else 1.0
        host_setup = spawned[0] - start
        stored = [r for r in results if r is not None]
        checks: List[Check] = [
            (f"job_{i}_stored", r is not None, specs[i].describe())
            for i, r in enumerate(results)
        ]
        checks.append(("no_failed_jobs", not report.failed, repr(report.failed)))
        for target in self.targets:
            checks.append((f"{target}_assembles", target in report.outputs,
                           repr(report.errors.get(target, ""))))
        return Iteration(
            variant=variant,
            setup_s=host_setup * speed,
            wall_s=(host - host_setup) * speed,
            host_setup_s=host_setup,
            host_wall_s=host - host_setup,
            sim_s=self.duration * len(stored),
            runs=len(stored),
            counters=_run_counters(stored),
            checks=checks,
            results=stored,
            worker_peak_mb=max((j[2] for j in jobs), default=0) / 1024.0,
        )


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (HighwayAb, UrbanGrid, CbfFlood, Campaign)
}
