"""Crash-recovery tests for the leased campaign service.

Workers are independent processes coordinating only through the store
and the lease queue, so the service's whole fault story reduces to two
kill points, both exercised here with real SIGKILLs:

* **mid-run** — the lease stops being heartbeaten, expires, and another
  worker re-leases and re-executes the job (runs are deterministic, so
  the re-execution writes the identical record, never a duplicate);
* **mid-commit** — result and lease completion commit as one
  transaction (neither or both survive); a result stored under a lease
  that was never completed is *adopted* by the next leaseholder without
  re-running it.

The acceptance test at the bottom pins the end-to-end claim: a 2-worker
campaign with one worker killed mid-campaign resumes to per-run records
bit-identical to an uninterrupted single-worker reference campaign.
"""

import json
import os
import signal
import time

import pytest

from repro.experiments import campaign
from repro.experiments.campaign import plan_campaign
from repro.experiments.service.leases import LeaseQueue, job_id_for
from repro.experiments.service.scheduler import (
    WorkerSettings,
    run_service_campaign,
    worker_loop,
)
from repro.experiments.sqlite_store import SqliteResultStore
from tests.experiments.test_campaign import (
    KW,
    executed_keys,
    fake_result,
    recording_execute,
)
from tests.experiments.test_store import RESULTS_LAYOUTS, results_dir

#: Fast scheduler knobs: leases expire quickly, workers poll eagerly.
FAST = WorkerSettings(
    lease_ttl=1.0, heartbeat_interval=0.3, poll_interval=0.05
)


@pytest.fixture(params=RESULTS_LAYOUTS)
def store(request, tmp_path):
    keys = [s.key for s in plan_campaign(["fig7a", "fig12a"], **KW)]
    with results_dir(tmp_path, request.param, keys) as path:
        yield SqliteResultStore(path)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


# ----------------------------------------------------------------------
# lease TTL expiry
# ----------------------------------------------------------------------
def test_expired_lease_returns_to_queue(store):
    clock = FakeClock()
    queue = LeaseQueue(store, max_attempts=3, clock=clock)
    assert queue.seed(["job-a"]) == 1
    first = queue.lease("w1", ttl=5.0)
    assert first.job_id == "job-a" and first.attempt == 1
    # the lease is live: nobody else gets the job
    assert queue.lease("w2", ttl=5.0) is None
    assert queue.counts()["leased"] == 1
    # past the TTL the job is leasable again, as the next attempt
    clock.t = 6.0
    second = queue.lease("w2", ttl=5.0)
    assert second.job_id == "job-a" and second.attempt == 2
    # the original holder lost the lease: its completion is rejected
    assert queue.complete("w1", "job-a") is False
    assert queue.complete("w2", "job-a") is True
    assert queue.all_terminal()


def test_heartbeat_keeps_a_lease_alive(store):
    clock = FakeClock()
    queue = LeaseQueue(store, clock=clock)
    queue.seed(["job-a"])
    queue.lease("w1", ttl=5.0)
    clock.t = 4.0
    assert queue.heartbeat("w1", "job-a", ttl=5.0)  # deadline -> 9.0
    clock.t = 8.0
    assert queue.lease("w2", ttl=5.0) is None  # still held
    clock.t = 10.0
    assert not queue.heartbeat("w1", "job-a", ttl=5.0)  # expired now
    assert queue.lease("w2", ttl=5.0).job_id == "job-a"


def test_job_exhausting_attempts_turns_failed(store):
    clock = FakeClock()
    queue = LeaseQueue(store, max_attempts=2, clock=clock)
    queue.seed(["job-a"])
    for attempt in (1, 2):
        lease = queue.lease(f"w{attempt}", ttl=1.0)
        assert lease.attempt == attempt
        clock.t += 2.0  # the holder dies silently each time
    assert queue.lease("w9", ttl=1.0) is None
    assert queue.counts()["failed"] == 1
    assert "job-a" in queue.errors()
    assert queue.all_terminal()


# ----------------------------------------------------------------------
# SIGKILL mid-run: the job is re-leased and re-executed
# ----------------------------------------------------------------------
def kill_once_execute(log_path, sentinel, crash_key):
    """Records executions; SIGKILLs its own worker process the first time
    it sees the crash spec (the sentinel file keeps it to one kill)."""

    def execute(spec, checkpoints=None):
        if spec.key == crash_key and not os.path.exists(sentinel):
            with open(sentinel, "w", encoding="utf-8"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{job_id_for(spec.key)}\n")
        if spec.kind == "text":
            return f"text artefact for {spec.target}"
        return fake_result(spec)

    return execute


def test_worker_killed_mid_run_job_completes_elsewhere(
    store, tmp_path, monkeypatch
):
    log_path = str(tmp_path / "executed.log")
    sentinel = str(tmp_path / "killed")
    specs = plan_campaign(["fig7a"], **KW)
    crash_spec = next(s for s in specs if s.attacked)
    monkeypatch.setattr(
        campaign,
        "execute_spec",
        kill_once_execute(log_path, sentinel, crash_spec.key),
    )
    report = run_service_campaign(
        ["fig7a"], store=store, workers=2, settings=FAST, log_stream=None, **KW
    )
    assert os.path.exists(sentinel)  # the kill really happened
    assert report.ok
    assert report.executed == len(specs)
    # no lost results: every planned run is stored
    for spec in specs:
        assert store.has(spec.key), spec.describe()
    # no duplicated executions: each surviving run executed exactly once
    # (the killed attempt died before logging, so even the crash spec
    # appears once — its successful retry)
    executed = executed_keys(log_path)
    assert sorted(executed) == sorted(job_id_for(s.key) for s in specs)
    assert "fig7a" in report.outputs


def test_worker_dying_every_attempt_records_terminal_failure(
    store, tmp_path, monkeypatch
):
    """A job that kills every worker it touches ends ``failed`` after
    ``max_attempts`` instead of looping forever, and the campaign still
    finishes everything else."""
    log_path = str(tmp_path / "executed.log")
    specs = plan_campaign(["fig7a"], **KW)
    crash_spec = next(s for s in specs if s.attacked)

    def always_kill(spec, checkpoints=None):
        if spec.key == crash_spec.key:
            os.kill(os.getpid(), signal.SIGKILL)
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{job_id_for(spec.key)}\n")
        if spec.kind == "text":
            return "text"
        return fake_result(spec)

    monkeypatch.setattr(campaign, "execute_spec", always_kill)
    report = run_service_campaign(
        ["fig7a"],
        store=store,
        workers=2,
        settings=WorkerSettings(
            lease_ttl=1.0, heartbeat_interval=0.3, poll_interval=0.05,
            max_attempts=2,
        ),
        log_stream=None,
        **KW,
    )
    assert not report.ok
    failed_keys = {s.key for s, _err in report.failed}
    assert failed_keys == {crash_spec.key}
    assert store.get_failure(crash_spec.key) is not None
    assert not store.has(crash_spec.key)
    for spec in specs:
        if spec.key != crash_spec.key:
            assert store.has(spec.key), spec.describe()


# ----------------------------------------------------------------------
# SIGKILL mid-commit: stored result with a dangling lease is adopted
# ----------------------------------------------------------------------
def test_stored_result_with_dangling_lease_is_adopted_not_rerun(
    store, tmp_path, monkeypatch
):
    """A stored result under a lease that was never completed (e.g. a
    lease seeded over an already-populated store, or a holder whose
    completion was rejected after its result committed).  The next
    leaseholder must adopt the stored result — zero re-execution, zero
    duplicates."""
    log_path = str(tmp_path / "executed.log")
    monkeypatch.setattr(campaign, "execute_spec", recording_execute(log_path))
    specs = plan_campaign(["fig7a"], **KW)
    specs_by_job = {job_id_for(s.key): s for s in specs}
    # leases grant jobs in sorted id order: the first is predictable
    crashed_spec = specs_by_job[sorted(specs_by_job)[0]]
    queue = LeaseQueue(store)
    queue.seed(specs_by_job)
    # reproduce the dead worker: lease held, result persisted, no complete
    lease = queue.lease("dead-worker", ttl=0.3)
    assert lease.job_id == job_id_for(crashed_spec.key)
    campaign._store_result(store, crashed_spec, fake_result(crashed_spec))
    time.sleep(0.4)  # the dangling lease expires
    completed = worker_loop("w1", store, queue, specs_by_job, FAST)
    assert completed == len(specs)
    assert queue.all_terminal()
    assert queue.counts()["done"] == len(specs)
    # the crashed spec was adopted, never re-executed
    executed = executed_keys(log_path)
    assert job_id_for(crashed_spec.key) not in executed
    assert len(executed) == len(specs) - 1


def test_sqlite_result_and_lease_completion_commit_atomically(tmp_path):
    """The mid-commit guarantee itself: a worker dying inside the
    result+complete transaction leaves *neither* — no stored record with
    a done lease, no done lease without a record."""
    store = SqliteResultStore(tmp_path / "results.sqlite")
    queue = LeaseQueue(store)
    specs = plan_campaign(["fig12a"], **KW)
    spec = specs[0]
    queue.seed([job_id_for(spec.key)])
    lease = queue.lease("w1", ttl=30.0)

    class Died(BaseException):
        pass

    with pytest.raises(Died):
        with store.batch():
            campaign._store_result(store, spec, "artefact")
            assert queue.complete("w1", lease.job_id)
            raise Died()  # the crash point, after both writes
    assert not store.has(spec.key)
    assert queue.counts()["leased"] == 1  # the completion rolled back too
    # and the normal path commits both together
    with store.batch():
        campaign._store_result(store, spec, "artefact")
        assert queue.complete("w1", lease.job_id)
    assert store.has(spec.key)
    assert queue.counts()["done"] == 1


# ----------------------------------------------------------------------
# acceptance: interrupted service == uninterrupted reference campaign
# ----------------------------------------------------------------------
def canonical(record):
    """Simulations are deterministic; the only nondeterminism in a record
    is how long the run took on the host.  Mask the two wall-clock perf
    counters, then require bitwise identity."""
    extras = record["result"]["extras"]
    for counter in ("wall_time_s", "events_per_wall_sec"):
        assert counter in extras
        extras[counter] = 0.0
    return json.dumps(record, sort_keys=True)


def assert_stores_match(reference, store, n_records):
    """Bit-identical per-run records, key for key."""
    keys = list(reference.iter_keys())
    assert keys == list(store.iter_keys()) and len(keys) == n_records
    for k in keys:
        assert canonical(reference.get_record(k)) == canonical(
            store.get_record(k)
        )


def reference_campaign(tmp_path):
    """An uninterrupted one-worker campaign on its own store."""
    store = SqliteResultStore(tmp_path / "reference.sqlite")
    report = run_service_campaign(
        ["fig7a"], store=store, workers=1, log_stream=None, **KW
    )
    assert report.ok
    return store, report


def test_interrupted_service_matches_uninterrupted_reference(
    tmp_path, monkeypatch
):
    """The acceptance bar, with real simulations: a seeded fig7a
    campaign with 2 workers, one SIGKILLed mid-campaign, resumes to the
    same figure-input results as an uninterrupted single-worker
    campaign — bit-identical per-run records and identical assembled
    output."""
    reference_store, reference = reference_campaign(tmp_path)

    specs = plan_campaign(["fig7a"], **KW)
    crash_spec = next(s for s in specs if s.attacked)
    sentinel = tmp_path / "killed"
    real_execute = campaign.execute_spec

    def kill_once_then_real(spec, checkpoints=None):
        if spec.key == crash_spec.key and not sentinel.exists():
            sentinel.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
        return real_execute(spec, checkpoints=checkpoints)

    monkeypatch.setattr(campaign, "execute_spec", kill_once_then_real)
    store = SqliteResultStore(tmp_path / "results.sqlite")
    report = run_service_campaign(
        ["fig7a"],
        store=store,
        workers=2,
        settings=WorkerSettings(
            lease_ttl=2.0, heartbeat_interval=0.5, poll_interval=0.05
        ),
        log_stream=None,
        **KW,
    )
    assert sentinel.exists()  # one worker really died mid-campaign
    assert report.ok
    assert report.executed == len(specs)
    assert_stores_match(reference_store, store, len(specs))
    assert report.outputs["fig7a"] == reference.outputs["fig7a"]
