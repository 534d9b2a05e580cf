"""Preemption-safe resume in the campaign service (ISSUE acceptance).

A worker is SIGKILLed mid-run *after* its first interval checkpoint; the
successor that re-leases the job must adopt the checkpoint and resume
mid-run (never from t=0), the completed campaign's records must be
byte-identical to an uninterrupted baseline campaign, and completed runs
must garbage-collect their checkpoints.

The kill and resume points are observed through the module-level test
seams in :mod:`repro.experiments.checkpointing`
(``_post_checkpoint_hook`` / ``_on_resume_hook``), which worker
processes inherit across ``fork``.
"""

import os
import signal

from repro.experiments import checkpointing
from repro.experiments.campaign import plan_campaign
from repro.experiments.service.leases import job_id_for
from repro.experiments.service.scheduler import (
    WorkerSettings,
    run_service_campaign,
)
from repro.experiments.service.status import progress_snapshot
from repro.experiments.sqlite_store import SqliteResultStore
from tests.experiments.test_crash_recovery import (
    KW,
    assert_stores_match,
    reference_campaign,
)

CHECKPOINT_INTERVAL = 2.0


def test_sigkilled_worker_resumes_from_checkpoint_bit_identically(
    tmp_path, monkeypatch
):
    # Uninterrupted baseline: one worker, no checkpoints, its own store.
    reference_store, reference = reference_campaign(tmp_path)

    specs = plan_campaign(["fig7a"], **KW)
    crash_spec = next(s for s in specs if s.attacked)
    sentinel = tmp_path / "killed"
    resume_log = tmp_path / "resumes.log"

    def kill_after_first_checkpoint(key, sim_time):
        if (
            key.config_hash == crash_spec.key.config_hash
            and key.seed == crash_spec.key.seed
            and key.attacked
            and not sentinel.exists()
        ):
            sentinel.write_text(f"{sim_time}")
            os.kill(os.getpid(), signal.SIGKILL)

    def record_resume(key, sim_time):
        with open(resume_log, "a", encoding="utf-8") as handle:
            handle.write(f"{job_id_for(key)}:{sim_time}\n")

    monkeypatch.setattr(
        checkpointing, "_post_checkpoint_hook", kill_after_first_checkpoint
    )
    monkeypatch.setattr(checkpointing, "_on_resume_hook", record_resume)

    store = SqliteResultStore(tmp_path / "results.sqlite")
    report = run_service_campaign(
        ["fig7a"],
        store=store,
        workers=2,
        settings=WorkerSettings(
            lease_ttl=2.0,
            heartbeat_interval=0.5,
            poll_interval=0.05,
            checkpoint_interval=CHECKPOINT_INTERVAL,
        ),
        log_stream=None,
        **KW,
    )
    assert sentinel.exists(), "the worker was never killed"
    assert report.ok
    assert report.executed == len(specs)

    # The successor adopted the checkpoint: it resumed from the killed
    # worker's last saved sim time, so the re-simulated span is bounded
    # by one checkpoint interval — never the whole run.
    killed_at = float(sentinel.read_text())
    assert killed_at >= CHECKPOINT_INTERVAL
    resumes = [
        float(line.rsplit(":", 1)[1])
        for line in resume_log.read_text().splitlines()
    ]
    assert resumes, "the successor restarted from scratch, not a checkpoint"
    assert killed_at in resumes
    assert all(t > 0.0 for t in resumes)

    # Byte-identical records vs the uninterrupted baseline.
    assert_stores_match(reference_store, store, len(specs))
    assert report.outputs["fig7a"] == reference.outputs["fig7a"]

    # Completed runs garbage-collect their checkpoints; nothing was
    # quarantined along the way.
    for spec in specs:
        assert store.checkpoint_sim_time(spec.key) is None
    assert store.checkpoint_quarantine_count() == 0

    # And the status surface reports the finished campaign cleanly.
    snapshot = progress_snapshot(store, specs)
    assert snapshot["percent"] == 100.0
    assert snapshot["jobs"] == []
    assert snapshot["checkpoints_quarantined"] == 0
