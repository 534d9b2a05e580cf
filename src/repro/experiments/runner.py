"""The A/B experiment runner.

Each *setting* is simulated as seed-paired attack-free (A) and attacked (B)
runs; γ/λ are computed from the mean per-bin reception rates exactly as the
paper defines (§IV-A).  :func:`run_ab` executes a setting's runs serially
in the current process; parallel execution is the campaign lease service's
job (:mod:`repro.experiments.service.scheduler`).
"""

from __future__ import annotations

import dataclasses
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.config import AttackKind, ExperimentConfig
from repro.experiments.metrics import (
    BinnedRates,
    PacketOutcome,
    cumulative_drop_rates,
    mean_bin_rates,
    mean_drop_rate,
)
from repro.experiments.world import World
from repro.observability.ledger import PacketLedger


class RunTimeout(RuntimeError):
    """A run exceeded its wall-clock budget (raised in the executing
    process by :func:`alarm_deadline`)."""


@contextmanager
def alarm_deadline(timeout: Optional[float]) -> Iterator[None]:
    """Raise :class:`RunTimeout` in the current process after ``timeout``
    wall-clock seconds (``SIGALRM``-based, single-threaded runs only).

    ``None``/``0`` disables the guard, as does a platform without
    ``SIGALRM``.  The service scheduler's lease workers enforce per-run
    budgets with it; the previous alarm handler is restored on exit.
    """
    if not timeout or timeout <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {timeout:.0f}s")

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    seed: int
    attacked: bool
    binned: BinnedRates
    overall_rate: float
    n_packets: int
    outcomes: List[PacketOutcome]
    extras: Dict[str, float] = field(default_factory=dict)
    #: Terminal-outcome counts from the packet-lifecycle ledger, keyed by
    #: :data:`repro.observability.OUTCOMES` reason strings.  ``None`` when
    #: the run executed without a ledger (the default).
    drop_breakdown: Optional[Dict[str, int]] = None


def run_single(
    config: ExperimentConfig,
    *,
    attacked: bool,
    seed: Optional[int] = None,
    ledger: Optional[PacketLedger] = None,
) -> RunResult:
    """Build a world, run it, and summarise.

    Pass a fresh :class:`PacketLedger` to additionally account every
    application packet's terminal outcome (``drop_breakdown`` and
    ``ledger_*`` extras).  The ledger is passive: the simulation itself is
    bit-identical with and without it.
    """
    world = World(config, attacked=attacked, seed=seed, ledger=ledger)
    world.run()
    return summarize_world(world)


def summarize_world(world: World) -> RunResult:
    """Fold a *completed* world into a :class:`RunResult`.

    Shared by :func:`run_single` and the checkpoint-resume path
    (:mod:`repro.experiments.checkpointing`), which finishes a restored
    world instead of a freshly built one — both must produce the identical
    record for the identical simulated timeline.
    """
    metrics = world.metrics
    attacked = world.attacked
    ledger = world.ledger
    stats = world.channel.stats
    extras: Dict[str, float] = {
        "frames_sent": float(stats.frames_sent),
        "frames_delivered": float(stats.frames_delivered),
        "unicast_lost": float(stats.unicast_lost),
        "vehicles_final": float(world.traffic.count_on_road()),
        # perf counters (see repro.experiments.reporting.PerfSnapshot)
        "events_fired": float(world.sim.events_fired),
        "wall_time_s": world.sim.wall_time_s,
        "events_per_wall_sec": world.sim.events_per_wall_sec,
        "mean_receivers_per_frame": stats.mean_receivers_per_frame,
        "mean_candidates_per_frame": stats.mean_candidates_per_frame,
    }
    if world.attacker is not None:
        # Summed over every deployed attacker (coordinated runs several
        # masts); single-attacker runs read identically to before.
        extras["replays_sent"] = float(
            sum(a.stats.replays_sent for a in world.attackers)
        )
        extras["frames_sniffed"] = float(
            sum(a.stats.frames_sniffed for a in world.attackers)
        )
        extras["attackers_deployed"] = float(len(world.attackers))
        withheld = sum(
            getattr(a, "replays_withheld", 0) for a in world.attackers
        )
        if withheld:
            extras["replays_withheld"] = float(withheld)
    if world.detection is not None:
        extras.update(world.detection.summary().extras())
    if world.fault_injector is not None:
        extras["frames_fault_dropped"] = float(stats.frames_fault_dropped)
        fault_stats = world.fault_injector.stats
        for f in dataclasses.fields(fault_stats):
            extras[f"fault_{f.name}"] = float(getattr(fault_stats, f.name))
    if world.invariant_checker is not None:
        extras["invariant_checks_run"] = float(world.invariant_checker.checks_run)
    for name, value in sorted(world.protocol_stat_totals().items()):
        extras[f"stats_{name}"] = float(value)
    drop_breakdown: Optional[Dict[str, int]] = None
    if ledger is not None:
        drop_breakdown = ledger.outcome_totals()
        for reason, count in drop_breakdown.items():
            extras[f"ledger_{reason}"] = float(count)
    return RunResult(
        seed=world.seed,
        attacked=attacked,
        binned=metrics.binned_rates(),
        overall_rate=metrics.overall_rate(),
        n_packets=len(metrics.outcomes),
        outcomes=list(metrics.outcomes),
        extras=extras,
        drop_breakdown=drop_breakdown,
    )


#: One unit of simulation work: (config, attacked, seed).
RunJob = Tuple[ExperimentConfig, bool, int]


def expand_jobs(config: ExperimentConfig, runs: int) -> List[RunJob]:
    """The individual runs an A/B setting needs, in deterministic order.

    Shared by :func:`run_ab` (in-memory execution) and the campaign
    planner and assembler (store keys), so both agree exactly on which
    ``(config, attacked, seed)`` runs make up a setting.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    jobs: List[RunJob] = []
    for k in range(runs):
        seed = config.seed + k
        jobs.append((config, False, seed))
        if config.attack.kind is not AttackKind.NONE:
            jobs.append((config, True, seed))
    return jobs


@dataclass
class AbResult:
    """Aggregated A/B comparison for one setting."""

    config: ExperimentConfig
    af_runs: List[RunResult]
    atk_runs: List[RunResult]

    # ------------------------------------------------------------------
    # aggregated series
    # ------------------------------------------------------------------
    @property
    def af_bin_rates(self) -> List[Optional[float]]:
        """Attack-free mean reception rate per time bin."""
        return mean_bin_rates([r.binned for r in self.af_runs])

    @property
    def atk_bin_rates(self) -> List[Optional[float]]:
        """Attacked mean reception rate per time bin."""
        return mean_bin_rates([r.binned for r in self.atk_runs])

    @property
    def af_overall(self) -> float:
        """Attack-free reception rate over all packets of all runs."""
        return _overall(self.af_runs)

    @property
    def atk_overall(self) -> float:
        """Attacked reception rate over all packets of all runs."""
        return _overall(self.atk_runs)

    def drop_rate(self, *, relative: bool = True) -> Optional[float]:
        """γ (inter-area) / λ (intra-area) for this setting."""
        return mean_drop_rate(
            self.af_bin_rates, self.atk_bin_rates, relative=relative
        )

    def drop_confidence_interval(self) -> Optional[tuple]:
        """(mean, low, high) 95 % interval of the per-run paired reception
        drop — requires >= 2 seed-paired runs."""
        if len(self.af_runs) < 2 or len(self.af_runs) != len(self.atk_runs):
            return None
        from repro.analysis.stats import paired_difference_interval

        return paired_difference_interval(
            [r.overall_rate for r in self.af_runs],
            [r.overall_rate for r in self.atk_runs],
        )

    def cumulative_drops(self, *, relative: bool = True) -> List[Optional[float]]:
        """Accumulated drop rate over time (Fig 8 / Fig 10 series)."""
        return cumulative_drop_rates(
            self.af_bin_rates, self.atk_bin_rates, relative=relative
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        gamma = self.drop_rate()
        gamma_txt = f"{gamma:6.1%}" if gamma is not None else "   n/a"
        return (
            f"{self.config.attack.kind.value:<28} "
            f"af={self.af_overall:6.1%}  atk={self.atk_overall:6.1%}  "
            f"drop={gamma_txt}  runs={len(self.af_runs)}"
        )


def _overall(runs: Sequence[RunResult]) -> float:
    total = sum(r.n_packets for r in runs)
    if total == 0:
        return 0.0
    return sum(r.overall_rate * r.n_packets for r in runs) / total


def run_ab(config: ExperimentConfig, *, runs: int = 3) -> AbResult:
    """Run seed-paired A/B simulations for one setting.

    The attack-free twin of each attacked run uses the same seed, so the
    traffic and the workload are identical packet-for-packet.
    """
    results = [
        run_single(cfg, attacked=attacked, seed=seed)
        for cfg, attacked, seed in expand_jobs(config, runs)
    ]
    af_runs = [r for r in results if not r.attacked]
    atk_runs = [r for r in results if r.attacked]
    return AbResult(config=config, af_runs=af_runs, atk_runs=atk_runs)
