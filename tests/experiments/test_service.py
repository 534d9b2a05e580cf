"""Tests for the campaign service layer: worker loop, scheduler,
status endpoint, partial assembly, and the CLI's scheduler surface.

Crash recovery (SIGKILL mid-run / mid-commit) lives in
``test_crash_recovery.py``; the lease protocol's exhaustive invariants
in ``tests/properties/test_lease_properties.py``.  This module covers
the orderly paths and the wiring around them.
"""

import argparse
import io
import json
import urllib.request

import pytest

from repro.experiments import campaign, cli
from repro.experiments.campaign import MissingRunError, assemble_target, plan_campaign
from repro.experiments.service.leases import LeaseQueue, job_id_for
from repro.experiments.service.scheduler import (
    WorkerSettings,
    run_service_campaign,
    worker_loop,
)
from repro.experiments.service.status import StatusServer, progress_snapshot
from repro.experiments.sqlite_store import DB_NAME, SqliteResultStore
from tests.experiments.test_campaign import (
    KW,
    executed_keys,
    fake_result,
    recording_execute,
)
from tests.experiments.test_store import RESULTS_LAYOUTS, results_dir

FAST = WorkerSettings(lease_ttl=5.0, heartbeat_interval=0.5, poll_interval=0.05)


@pytest.fixture(params=RESULTS_LAYOUTS)
def store(request, tmp_path):
    keys = [s.key for s in plan_campaign(["fig7a"], **KW)]
    with results_dir(tmp_path, request.param, keys) as path:
        yield SqliteResultStore(path)


# ----------------------------------------------------------------------
# WorkerSettings
# ----------------------------------------------------------------------
def test_worker_settings_validation():
    with pytest.raises(ValueError):
        WorkerSettings(lease_ttl=0.0)
    with pytest.raises(ValueError):
        WorkerSettings(max_attempts=0)
    with pytest.raises(ValueError):
        WorkerSettings(lease_ttl=10.0, heartbeat_interval=10.0)
    with pytest.raises(ValueError):
        WorkerSettings(lease_ttl=10.0, heartbeat_interval=-1.0)
    assert WorkerSettings(lease_ttl=9.0).effective_heartbeat == 3.0
    assert WorkerSettings(lease_ttl=9.0, heartbeat_interval=1.5).effective_heartbeat == 1.5


# ----------------------------------------------------------------------
# worker_loop (in-process)
# ----------------------------------------------------------------------
def test_worker_loop_drains_the_queue(store, tmp_path, monkeypatch):
    log_path = str(tmp_path / "executed.log")
    monkeypatch.setattr(campaign, "execute_spec", recording_execute(log_path))
    specs = plan_campaign(["fig7a"], **KW)
    specs_by_job = {job_id_for(s.key): s for s in specs}
    queue = LeaseQueue(store)
    queue.seed(specs_by_job)
    completed = worker_loop("w1", store, queue, specs_by_job, FAST)
    assert completed == len(specs)
    assert queue.all_terminal()
    assert queue.counts()["done"] == len(specs)
    for spec in specs:
        assert store.has(spec.key), spec.describe()
    assert len(executed_keys(log_path)) == len(specs)


def test_worker_loop_fails_unknown_jobs(store):
    queue = LeaseQueue(store)
    queue.seed(["not-a-planned-job"])
    completed = worker_loop("w1", store, queue, {}, FAST)
    assert completed == 0
    assert queue.counts()["failed"] == 1
    assert "unknown" in queue.errors()["not-a-planned-job"]


def test_worker_loop_retries_then_records_terminal_failure(
    store, monkeypatch
):
    attempts = []

    def always_raise(spec, checkpoints=None):
        attempts.append(spec.key)
        raise ValueError("deterministic failure")

    monkeypatch.setattr(campaign, "execute_spec", always_raise)
    specs = plan_campaign(["fig12a"], **KW)
    specs_by_job = {job_id_for(s.key): s for s in specs}
    queue = LeaseQueue(store, max_attempts=2)
    queue.seed(specs_by_job)
    settings = WorkerSettings(
        lease_ttl=5.0, poll_interval=0.05, max_attempts=2
    )
    completed = worker_loop("w1", store, queue, specs_by_job, settings)
    assert completed == 0
    assert len(attempts) == 2  # max_attempts, then terminal
    assert queue.counts()["failed"] == 1
    assert store.get_failure(specs[0].key) is not None
    assert not store.has(specs[0].key)


# ----------------------------------------------------------------------
# run_service_campaign (multi-process, orderly)
# ----------------------------------------------------------------------
def test_service_campaign_completes_and_resumes(store, tmp_path, monkeypatch):
    log_path = str(tmp_path / "executed.log")
    monkeypatch.setattr(campaign, "execute_spec", recording_execute(log_path))
    specs = plan_campaign(["fig7a", "fig12a"], **KW)
    report = run_service_campaign(
        ["fig7a", "fig12a"], store=store, workers=2, settings=FAST,
        log_stream=None, **KW,
    )
    assert report.ok
    assert report.planned == len(specs)
    assert report.executed == len(specs)
    assert report.skipped == 0
    assert report.workers == 2
    assert set(report.outputs) == {"fig7a", "fig12a"}
    assert len(executed_keys(log_path)) == len(specs)
    # re-issue: the service always resumes — nothing executes again
    report2 = run_service_campaign(
        ["fig7a", "fig12a"], store=store, workers=2, settings=FAST,
        log_stream=None, **KW,
    )
    assert report2.ok
    assert report2.skipped == len(specs)
    assert report2.executed == 0
    assert len(executed_keys(log_path)) == len(specs)


def test_service_campaign_rejects_bad_workers(store):
    with pytest.raises(ValueError):
        run_service_campaign(["fig12a"], store=store, workers=0, **KW)


def test_failed_queue_row_never_overwrites_a_stored_result(store):
    """The store is the ground truth: a job the queue lists as failed
    while its result is stored (a stale row from an earlier campaign, or
    a late completion the queue rejected) is neither reported failed nor
    overwritten by a failure record."""
    spec = plan_campaign(["fig12a"], **KW)[0]
    queue = LeaseQueue(store, max_attempts=1)
    queue.seed([job_id_for(spec.key)])
    lease = queue.lease("w1", ttl=30.0)
    assert queue.fail("w1", lease.job_id, "boom") == "failed"
    store.put_text(spec.key, "stored artefact")

    report = run_service_campaign(
        ["fig12a"], store=store, workers=1, settings=FAST, **KW
    )
    assert report.skipped == 1
    assert report.failed == []
    assert report.ok
    assert store.get_text(spec.key) == "stored artefact"
    assert report.outputs["fig12a"] == "stored artefact"


def test_reissued_campaign_retries_earlier_failures(store, tmp_path, monkeypatch):
    """A job an earlier campaign left failed is re-armed by the next one
    on the same store, and runs again."""

    def always_raise(spec, checkpoints=None):
        raise ValueError("broken build")

    monkeypatch.setattr(campaign, "execute_spec", always_raise)
    settings = WorkerSettings(lease_ttl=5.0, poll_interval=0.05, max_attempts=1)
    first = run_service_campaign(
        ["fig12a"], store=store, workers=1, settings=settings, **KW
    )
    assert len(first.failed) == 1
    key = first.failed[0][0].key
    assert store.get_failure(key) is not None

    log_path = str(tmp_path / "executed.log")
    monkeypatch.setattr(campaign, "execute_spec", recording_execute(log_path))
    second = run_service_campaign(
        ["fig12a"], store=store, workers=1, settings=settings, **KW
    )
    assert second.ok
    assert second.executed == 1
    assert executed_keys(log_path) == [job_id_for(key)]
    assert store.get_text(key) == "text artefact for fig12a"


def test_service_campaign_partial_renders_with_coverage_note(
    store, monkeypatch
):
    """With ``partial``, a target whose runs keep failing still renders
    from the stored subset, flagged with a coverage note."""
    specs = plan_campaign(["fig7a"], **KW)
    bad_key = next(s for s in specs if s.attacked).key

    def flaky(spec, checkpoints=None):
        if spec.key == bad_key:
            raise ValueError("this run never succeeds")
        return fake_result(spec)

    monkeypatch.setattr(campaign, "execute_spec", flaky)
    report = run_service_campaign(
        ["fig7a"], store=store, workers=1, partial=True,
        settings=WorkerSettings(
            lease_ttl=5.0, poll_interval=0.05, max_attempts=1
        ),
        log_stream=None, **KW,
    )
    assert not report.ok  # the failure is still reported...
    assert [s.key for s, _ in report.failed] == [bad_key]
    # ...but the artefact rendered from what is stored, with the note
    assert "fig7a" in report.outputs
    assert report.partial_targets["fig7a"].startswith("partial:")
    assert "note: partial:" in report.outputs["fig7a"]
    assert "fig7a" not in report.errors


def test_pool_campaign_partial_renders_with_coverage_note(store, monkeypatch):
    """``--partial`` works the same with a pool of worker processes
    (``--processes 2``): the failing run is reported once, and the
    target renders from the stored subset with the coverage note."""
    specs = plan_campaign(["fig7a"], **KW)
    bad_key = next(s for s in specs if s.attacked).key

    def flaky(spec, checkpoints=None):
        if spec.key == bad_key:
            raise ValueError("this run never succeeds")
        return fake_result(spec)

    monkeypatch.setattr(campaign, "execute_spec", flaky)
    report = run_service_campaign(
        ["fig7a"], store=store, workers=2, partial=True,
        settings=WorkerSettings(
            lease_ttl=5.0, poll_interval=0.05, max_attempts=1
        ),
        log_stream=None, **KW,
    )
    assert report.workers == 2
    assert not report.ok
    assert [s.key for s, _ in report.failed] == [bad_key]
    assert report.executed == len(specs) - 1
    assert "fig7a" in report.outputs
    assert report.partial_targets["fig7a"].startswith("partial:")
    assert "note: partial:" in report.outputs["fig7a"]
    assert "fig7a" not in report.errors


# ----------------------------------------------------------------------
# partial assembly (streaming aggregation)
# ----------------------------------------------------------------------
def test_assemble_partial_keeps_only_complete_seed_pairs(store):
    specs = plan_campaign(["fig7a"], **KW)
    # store everything except one attacked run: its A-side twin must be
    # excluded too (a lone attack-free run would bias the comparison)
    missing = next(s for s in specs if s.attacked)
    for spec in specs:
        if spec.key != missing.key:
            campaign._store_result(store, spec, fake_result(spec))
    with pytest.raises(MissingRunError):
        assemble_target("fig7a", store, partial=False, **KW)
    text, note = assemble_target("fig7a", store, partial=True, **KW)
    stored, planned = len(specs) - 1, len(specs)
    assert note == f"partial: {stored}/{planned} runs stored (83%)"
    assert f"note: {note}" in text


def test_assemble_partial_with_zero_runs_still_raises(store):
    with pytest.raises(MissingRunError):
        assemble_target("fig7a", store, partial=True, **KW)


def test_assemble_partial_complete_store_reports_complete(store):
    for spec in plan_campaign(["fig7a"], **KW):
        campaign._store_result(store, spec, fake_result(spec))
    text, note = assemble_target("fig7a", store, partial=True, **KW)
    assert note == "complete"
    assert "note:" not in text
    assert text == assemble_target("fig7a", store, partial=False, **KW)


# ----------------------------------------------------------------------
# status snapshot + HTTP endpoint
# ----------------------------------------------------------------------
def test_progress_snapshot_counts(store):
    specs = plan_campaign(["fig7a"], **KW)
    half = specs[: len(specs) // 2]
    for spec in half:
        campaign._store_result(store, spec, fake_result(spec))
    store.put_failure(specs[-1].key, "boom")
    snapshot = progress_snapshot(store, specs)
    assert snapshot["planned"] == len(specs)
    assert snapshot["stored"] == len(half)
    assert snapshot["failures"] == 1
    assert snapshot["remaining"] == len(specs) - len(half)
    assert snapshot["quarantined"] == 0
    assert store.describe() == snapshot["backend"]
    queue = LeaseQueue(store)
    queue.seed([job_id_for(s.key) for s in specs])
    with_queue = progress_snapshot(store, specs, queue=queue)
    assert with_queue["queue"]["pending"] == len(specs)
    assert with_queue["workers_active"] == 0


def test_progress_snapshot_counts_runs_stored_for_another_target(store):
    """Fig 7c's ttl=20s point is Fig 7a's wN setting, so a store holding
    only Fig 7a's runs already holds that point's two runs."""
    for spec in plan_campaign(["fig7a"], **KW):
        campaign._store_result(store, spec, fake_result(spec))
    snapshot = progress_snapshot(store, plan_campaign(["fig7c"], **KW))
    assert snapshot["planned"] == 8
    assert snapshot["stored"] == 2


def test_status_server_serves_snapshot_and_health(store):
    specs = plan_campaign(["fig12a"], **KW)
    server = StatusServer(lambda: progress_snapshot(store, specs), port=0)
    with server:
        base = f"http://127.0.0.1:{server.port}"
        with urllib.request.urlopen(f"{base}/status", timeout=5) as response:
            assert response.status == 200
            body = json.loads(response.read())
        assert body["planned"] == 1 and body["stored"] == 0
        with urllib.request.urlopen(f"{base}/healthz", timeout=5) as response:
            assert response.read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(f"{base}/nope", timeout=5)
        assert exc_info.value.code == 404


# ----------------------------------------------------------------------
# CLI: service flags are warned about and validated consistently
# ----------------------------------------------------------------------
def _args(**overrides):
    defaults = dict(
        runs=3, processes=1, duration=200.0, seed=1,
        lease_ttl=60.0, heartbeat=None, status_port=None, timeout=None,
        retries=1, checkpoint_interval=None, partial=False,
    )
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


def test_single_runs_warn_on_scheduler_flags(capsys):
    """Service flags on a single deterministic run warn exactly like
    --runs/--processes instead of being silently swallowed."""
    cli._warn_ignored_flags(["table1"], _args(processes=4, lease_ttl=5.0))
    err = capsys.readouterr().err
    assert "--processes 4" in err and "--lease-ttl 5.0" in err
    assert "no effect" in err
    # overhead is one world run too
    cli._warn_ignored_flags(["overhead"], _args(runs=2))
    err = capsys.readouterr().err
    assert "overhead" in err and "--runs 2" in err and "no effect" in err
    # a campaign of single runs only is warned about once
    cli._warn_ignored_flags(["fig12a", "table1"], _args(runs=2))
    err = capsys.readouterr().err
    assert err.count("no effect") == 1 and "fig12a, table1" in err
    # and still nothing when every fan-out flag is at its default
    cli._warn_ignored_flags(["table1"], _args())
    assert capsys.readouterr().err == ""
    # multi-run targets accept the flags silently (they do apply)
    cli._warn_ignored_flags(["fig7a"], _args(processes=4))
    assert capsys.readouterr().err == ""
    cli._warn_ignored_flags(["fig12a", "fig7a"], _args(processes=4))
    assert capsys.readouterr().err == ""


def test_duration_warns_only_where_it_changes_nothing(capsys):
    """--duration has no effect on a table or on fig13's fixed curve
    scenario, alone or together; it does on fig12a and on A/B targets."""
    for targets in (["table1"], ["fig13"], ["fig13", "table1"]):
        cli._warn_ignored_flags(targets, _args(duration=5.0))
        err = capsys.readouterr().err
        assert "--duration 5.0 has no effect" in err, targets
    for targets in (["fig12a"], ["fig13", "fig12a"], ["table1", "fig7a"]):
        cli._warn_ignored_flags(targets, _args(duration=5.0))
        assert capsys.readouterr().err == "", targets


def test_mixed_campaign_does_not_warn_about_flags_it_uses(
    tmp_path, monkeypatch, capsys
):
    """--runs/--processes drive a campaign with any multi-run target, so
    its single-run targets must not claim the flags have no effect."""
    monkeypatch.setattr(
        campaign, "execute_spec", recording_execute(str(tmp_path / "log"))
    )
    argv = [
        "campaign", "fig12a", "table1", "fig7a",
        "--processes", "2", "--runs", "1", "--duration", "6.0",
        "--results-dir", str(tmp_path / "results"),
    ]
    assert cli.main(argv) == 0
    assert "no effect" not in capsys.readouterr().err


def test_plain_target_is_fresh_identical_and_leaves_nothing(
    tmp_path, monkeypatch, capsys
):
    """A target without --save runs through the service on a throwaway
    store: same stdout as the figure function, no stored result read, and
    nothing left in --results-dir or the temporary directory."""
    from repro.experiments.figures import fig7

    results = tmp_path / "results"
    planted = SqliteResultStore(results / DB_NAME)
    spec = plan_campaign(["fig7a"], runs=1, duration=6.0, seed=1)[0]
    planted.put_run(spec.key, fake_result(spec), config=spec.config)
    planted.close()
    before = sorted(p.name for p in results.iterdir())
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr("tempfile.tempdir", str(scratch))

    code = cli.main([
        "fig7a", "--runs", "1", "--duration", "6.0", "--processes", "2",
        "--results-dir", str(results),
    ])

    assert code == 0
    fresh = fig7.fig7a(runs=1, duration=6.0, seed=1).format()
    assert capsys.readouterr().out == fresh + "\n\n"
    assert sorted(p.name for p in results.iterdir()) == before
    assert SqliteResultStore(results / DB_NAME).count() == 1
    assert list(scratch.iterdir()) == []


def test_scheduler_flag_ranges_are_validated():
    with pytest.raises(SystemExit):
        cli._worker_settings(_args(lease_ttl=0.0))
    with pytest.raises(SystemExit):
        cli._worker_settings(_args(lease_ttl=10.0, heartbeat=10.0))
    with pytest.raises(SystemExit):
        cli._worker_settings(_args(status_port=70000))
    with pytest.raises(SystemExit):
        cli._worker_settings(_args(retries=-1))
    with pytest.raises(SystemExit):
        cli._worker_settings(_args(checkpoint_interval=0.0))
    settings = cli._worker_settings(_args(retries=2, timeout=9.0))
    assert settings.max_attempts == 3 and settings.timeout == 9.0


def test_cli_campaign_via_lease_scheduler(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        campaign, "execute_spec", recording_execute(str(tmp_path / "log"))
    )
    argv = [
        "campaign", "fig12a",
        "--processes", "1",
        "--results-dir", str(tmp_path / "results"),
        "--runs", "1", "--duration", "6.0",
    ]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert "text artefact for fig12a" in captured.out
    store = SqliteResultStore(tmp_path / "results" / DB_NAME)
    assert store.count() == 1
    # a re-issued campaign executes nothing
    assert cli.main(argv) == 0
    assert "0 executed" in capsys.readouterr().err
    assert len(executed_keys(str(tmp_path / "log"))) == 1


def test_cli_status_reports_progress(tmp_path, monkeypatch, capsys):
    store = SqliteResultStore(tmp_path / "results" / DB_NAME)
    specs = plan_campaign(["fig12a"], **KW)
    store.put_text(specs[0].key, "artefact")
    code = cli.main(
        [
            "status", "fig12a",
            "--results-dir", str(tmp_path / "results"),
            "--runs", "1", "--duration", "6.0",
        ]
    )
    assert code == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["planned"] == 1
    assert snapshot["stored"] == 1
    assert snapshot["percent"] == 100.0
