"""Leased multi-worker campaign execution — the one campaign executor.

:func:`run_service_campaign` runs N *independent* worker processes that
pull jobs from the lease queue in the store's SQLite database and write
results to the same store.  The workers coordinate through the queue
alone — no pipes, no shared memory — so any of them can be SIGKILLed,
OOM-killed or power-cycled at any instant and the campaign still
completes:

* killed **mid-run**: the lease stops being heartbeaten, expires after
  its TTL, and another worker re-leases and re-executes the job (runs are
  deterministic, so the re-execution writes the identical record; with
  checkpointing on, it resumes from the newest checkpoint);
* killed **mid-commit**: "result + lease completion + checkpoint GC"
  commit as one transaction, so either all of it lands or none does;
* killed **between jobs**: nothing was held; the parent respawns the
  worker (bounded) or the remaining workers drain the queue.

Attempts are bounded per job: a job whose workers keep failing or dying
turns terminally ``failed`` and is recorded in the store as a
``failure``, which the next campaign retries.

Workers are spawned with the ``fork`` start method so tests can
substitute :func:`repro.experiments.campaign.execute_spec` in the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.campaign import (
    CampaignReport,
    MissingRunError,
    RunSpec,
    _store_result,
    assemble_target,
    plan_campaign,
    resolve_targets,
)
from repro.experiments.runner import RunTimeout, alarm_deadline
from repro.experiments.service.leases import JobState, LeaseQueue, job_id_for
from repro.experiments.sqlite_store import SqliteResultStore


@dataclass(frozen=True)
class WorkerSettings:
    """Per-worker scheduling knobs.

    ``heartbeat_interval`` defaults to a third of the TTL: a worker must
    miss several heartbeats before its lease is stolen, so a briefly
    stalled scheduler does not cause double execution.
    """

    lease_ttl: float = 60.0
    heartbeat_interval: Optional[float] = None
    timeout: Optional[float] = None
    max_attempts: int = 3
    poll_interval: float = 0.2
    #: Simulation seconds between run checkpoints; None (default) disables
    #: checkpointing entirely — runs execute exactly as before.  Lives here
    #: (not in ExperimentConfig) so enabling it never changes config
    #: hashes, run keys or stored records.
    checkpoint_interval: Optional[float] = None

    def __post_init__(self):
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if (
            self.heartbeat_interval is not None
            and not 0 < self.heartbeat_interval < self.lease_ttl
        ):
            raise ValueError("heartbeat_interval must be in (0, lease_ttl)")
        if (
            self.checkpoint_interval is not None
            and self.checkpoint_interval <= 0
        ):
            raise ValueError("checkpoint_interval must be > 0")

    @property
    def effective_heartbeat(self) -> float:
        return (
            self.heartbeat_interval
            if self.heartbeat_interval is not None
            else self.lease_ttl / 3.0
        )


class _Heartbeat:
    """Background lease renewal while a job executes."""

    def __init__(
        self, queue: LeaseQueue, worker_id: str, job_id: str, settings: WorkerSettings
    ):
        self._queue = queue
        self._worker_id = worker_id
        self._job_id = job_id
        self._settings = settings
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._settings.effective_heartbeat):
            if not self._queue.heartbeat(
                self._worker_id, self._job_id, ttl=self._settings.lease_ttl
            ):
                self.lost = True
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def worker_loop(
    worker_id: str,
    store: SqliteResultStore,
    queue: LeaseQueue,
    specs_by_job: Dict[str, RunSpec],
    settings: WorkerSettings,
    log_stream=None,
) -> int:
    """Lease, execute, commit — until the queue is terminal.

    Returns how many jobs this worker completed.  Exceptions from the
    simulation are converted into queue ``fail`` transitions (retry or
    terminal failure); only queue/store-level errors propagate.
    """
    # Resolved at call time so fork-inherited monkeypatches of
    # campaign.execute_spec (the tests' crash-injection hook) take effect.
    from repro.experiments import campaign as campaign_mod

    completed = 0
    while True:
        lease = queue.lease(worker_id, ttl=settings.lease_ttl)
        if lease is None:
            if queue.all_terminal():
                return completed
            time.sleep(settings.poll_interval)
            continue
        spec = specs_by_job.get(lease.job_id)
        if spec is None:
            # Planner mismatch (stale queue seeded by another code version).
            queue.fail(worker_id, lease.job_id, "job unknown to this planner")
            continue
        if store.has(spec.key):
            # A previous holder crashed after persisting its result but
            # before completing the lease; adopt the stored record (and
            # drop any checkpoint it left behind — the run is done).
            store.delete_checkpoint(spec.key)
            queue.complete(worker_id, lease.job_id)
            completed += 1
            _wlog(log_stream, worker_id, f"adopted stored {spec.describe()}")
            continue
        checkpoints = (
            None
            if settings.checkpoint_interval is None
            else (store, settings.checkpoint_interval)
        )
        with _Heartbeat(queue, worker_id, lease.job_id, settings) as heartbeat:
            try:
                with alarm_deadline(settings.timeout):
                    result = campaign_mod.execute_spec(
                        spec, checkpoints=checkpoints
                    )
            except BaseException as exc:
                error = f"{type(exc).__name__}: {exc}"
                state = queue.fail(worker_id, lease.job_id, error)
                if state == JobState.FAILED:
                    store.put_failure(spec.key, error)
                _wlog(
                    log_stream,
                    worker_id,
                    f"attempt {lease.attempt} of {spec.describe()} failed "
                    f"({error}) -> {state or 'lease lost'}",
                )
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                continue
        if heartbeat.lost:
            # The lease was stolen mid-run (e.g. a long GC pause past the
            # TTL).  The result is deterministic, so storing it anyway is
            # harmless — but the lease belongs to someone else now.
            with store.batch():
                _store_result(store, spec, result)
                store.delete_checkpoint(spec.key)
            _wlog(log_stream, worker_id, f"lost lease on {spec.describe()}")
            continue
        # Persist + complete in one transaction.  The run's checkpoint is
        # garbage-collected in the same commit — completed runs never
        # leave checkpoint debris behind.
        with store.batch():
            _store_result(store, spec, result)
            store.delete_checkpoint(spec.key)
            acknowledged = queue.complete(worker_id, lease.job_id)
        if acknowledged:
            completed += 1
        _wlog(
            log_stream,
            worker_id,
            f"ok {spec.describe()}"
            + ("" if acknowledged else " (lease had expired)"),
        )


def _wlog(stream, worker_id: str, message: str) -> None:
    if stream is not None:
        print(f"[worker {worker_id}] {message}", file=stream, flush=True)


def _worker_entry(
    worker_id: str,
    store: SqliteResultStore,
    queue: LeaseQueue,
    specs_by_job: Dict[str, RunSpec],
    settings: WorkerSettings,
    verbose: bool,
) -> None:
    import sys

    worker_loop(
        worker_id,
        store,
        queue,
        specs_by_job,
        settings,
        log_stream=sys.stderr if verbose else None,
    )


def spawn_worker(
    worker_id: str,
    store: SqliteResultStore,
    queue: LeaseQueue,
    specs_by_job: Dict[str, RunSpec],
    settings: WorkerSettings,
    *,
    verbose: bool = False,
) -> multiprocessing.Process:
    """Start one independent worker process (fork start method).

    The child talks to the campaign only through ``store`` and ``queue``
    (both reopen their handles post-fork), so it may be killed with
    SIGKILL at any point without corrupting either.
    """
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(
        target=_worker_entry,
        args=(worker_id, store, queue, specs_by_job, settings, verbose),
        name=f"campaign-worker-{worker_id}",
        daemon=False,
    )
    process.start()
    return process


def run_service_campaign(
    targets: Sequence[str],
    *,
    store: SqliteResultStore,
    workers: int = 2,
    runs: int = 3,
    duration: float = 200.0,
    seed: int = 1,
    settings: Optional[WorkerSettings] = None,
    status_port: Optional[int] = None,
    partial: bool = False,
    log_stream=None,
) -> CampaignReport:
    """Run a campaign with N leased worker processes against one store.

    Always resume-semantics: runs already in the store are skipped, and
    every other planned run is (re-)armed in the queue — including runs
    an earlier campaign left failed.  With ``status_port`` a read-only
    HTTP endpoint serves live progress counters for the campaign's
    duration (port 0 picks a free port).  With ``partial``, targets whose
    runs are incomplete render from whatever is stored (flagged with a
    coverage note) instead of erroring.

    The parent is a supervisor, not a scheduler: it seeds the queue,
    keeps ``workers`` processes alive (respawning dead ones, at most
    ``workers * max_attempts`` times), and assembles artefacts at the
    end.  All actual scheduling happens in the queue's lease transitions.
    """
    from repro.experiments.service.status import StatusServer, progress_snapshot

    if workers < 1:
        raise ValueError("workers must be >= 1")
    settings = settings or WorkerSettings()

    started = time.time()
    target_list = resolve_targets(targets)
    specs = plan_campaign(target_list, runs=runs, duration=duration, seed=seed)
    specs_by_job = {job_id_for(spec.key): spec for spec in specs}
    report = CampaignReport(planned=len(specs), workers=workers)

    to_run: List[RunSpec] = []
    for spec in specs:
        if store.has(spec.key):
            report.skipped += 1
        else:
            to_run.append(spec)
    to_run_jobs = [job_id_for(spec.key) for spec in to_run]

    queue = LeaseQueue(store, max_attempts=settings.max_attempts)
    queue.seed(to_run_jobs)
    _log(
        log_stream,
        f"{len(specs)} runs planned for {len(target_list)} targets "
        f"({report.skipped} already stored, {len(to_run)} to execute) on "
        f"{store.describe()} with {workers} workers "
        f"(ttl={settings.lease_ttl:.0f}s, "
        f"max_attempts={settings.max_attempts})",
    )

    status_server: Optional[StatusServer] = None
    if status_port is not None:
        status_server = StatusServer(
            lambda: progress_snapshot(
                store, specs, queue=queue, lease_ttl=settings.lease_ttl
            ),
            port=status_port,
        )
        status_server.start()
        _log(log_stream, f"status endpoint on http://127.0.0.1:{status_server.port}/status")

    budget = workers * settings.max_attempts
    procs: Dict[str, multiprocessing.Process] = {}
    try:
        if to_run:
            for n in range(workers):
                worker_id = f"w{n}-{os.getpid()}"
                procs[worker_id] = spawn_worker(
                    worker_id, store, queue, specs_by_job, settings,
                    verbose=log_stream is not None,
                )
            while True:
                alive = {wid: p for wid, p in procs.items() if p.is_alive()}
                if queue.all_terminal():
                    break
                if len(alive) < workers and budget > 0:
                    for wid, proc in list(procs.items()):
                        if proc.is_alive() or budget <= 0:
                            continue
                        proc.join(timeout=0)
                        budget -= 1
                        report.respawned += 1
                        new_id = f"{wid}r{report.respawned}"
                        _log(
                            log_stream,
                            f"worker {wid} exited (code {proc.exitcode}); "
                            f"respawning as {new_id}",
                        )
                        del procs[wid]
                        procs[new_id] = spawn_worker(
                            new_id, store, queue, specs_by_job, settings,
                            verbose=log_stream is not None,
                        )
                elif not alive:
                    _log(
                        log_stream,
                        "all workers gone and respawn budget exhausted; "
                        "abandoning queue drain",
                    )
                    break
                time.sleep(settings.poll_interval)
        for proc in procs.values():
            proc.join(timeout=settings.lease_ttl + 30.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join()
    finally:
        if status_server is not None:
            status_server.stop()

    # Fold queue outcomes into the report and the store's failure records.
    # The store is the ground truth: a job whose result is stored (a late
    # completion the queue rejected, or a stale failed row) has not
    # failed, and its record must never be overwritten by a failure.
    for job_id, error in queue.errors().items():
        spec = specs_by_job.get(job_id)
        if spec is None or store.has(spec.key):
            continue
        report.failed.append((spec, error))
        store.put_failure(spec.key, error)
    report.executed = sum(1 for spec in to_run if store.has(spec.key))
    report.retried = queue.retried(to_run_jobs)

    for target in target_list:
        try:
            report.outputs[target] = assemble_target(
                target, store, runs=runs, duration=duration, seed=seed
            )
        except MissingRunError as exc:
            if partial:
                try:
                    text, note = assemble_target(
                        target, store, runs=runs, duration=duration,
                        seed=seed, partial=True,
                    )
                    report.outputs[target] = text
                    report.partial_targets[target] = note
                    _log(log_stream, f"assembled {target} partially ({note})")
                    continue
                except MissingRunError:
                    pass
            report.errors[target] = str(exc)
            _log(log_stream, f"cannot assemble {target}: {exc}")
    report.wall_time_s = time.time() - started
    _log(log_stream, report.summary())
    return report


def _log(stream, message: str) -> None:
    if stream is not None:
        print(f"[service] {message}", file=stream, flush=True)


# RunTimeout is part of this module's error surface (workers raise it when
# a run exceeds its budget); re-exported for callers.
__all__ = [
    "RunTimeout",
    "WorkerSettings",
    "run_service_campaign",
    "spawn_worker",
    "worker_loop",
]
