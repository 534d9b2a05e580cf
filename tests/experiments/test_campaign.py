"""Tests for campaign planning, execution and store-backed assembly.

Campaigns run through the lease service, whose workers are forked, so
patching ``campaign.execute_spec`` in the parent before
``run_service_campaign`` spawns them substitutes the workers' behaviour
too — that is how crashes, hangs and execution counters are injected
without touching the service.  Substitutes take the ``checkpoints``
keyword the workers always pass.
"""

import hashlib
import os

import pytest

from repro.experiments import campaign
from repro.experiments.campaign import (
    CampaignError,
    MissingRunError,
    assemble_target,
    plan_campaign,
    resolve_targets,
)
from repro.experiments.figures import fig7
from repro.experiments.metrics import BinnedRates, PacketOutcome
from repro.experiments.runner import AbResult, RunResult, expand_jobs
from repro.experiments.service.leases import job_id_for
from repro.experiments.service.scheduler import (
    WorkerSettings,
    run_service_campaign,
)
from repro.experiments.sqlite_store import SqliteResultStore
from repro.experiments.store import RunKey, config_hash

KW = dict(runs=1, duration=6.0, seed=1)

#: Fast service knobs: leases expire quickly, workers poll eagerly.
FAST = WorkerSettings(lease_ttl=1.0, heartbeat_interval=0.3, poll_interval=0.05)


def make_store(tmp_path):
    return SqliteResultStore(tmp_path / "results.sqlite")


def fake_result(spec):
    """A structurally-valid RunResult standing in for a real simulation."""
    return RunResult(
        seed=spec.seed,
        attacked=spec.attacked,
        binned=BinnedRates(
            bin_width=spec.config.bin_width, rates=[0.75, 0.5]
        ),
        overall_rate=0.625,
        n_packets=8,
        outcomes=[],
        extras={"frames_sent": 10.0},
    )


def recording_execute(log_path):
    """An execute_spec substitute that appends every executed key to a file."""

    def execute(spec, checkpoints=None):
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{job_id_for(spec.key)}\n")
        if spec.kind == "text":
            return f"text artefact for {spec.target}"
        return fake_result(spec)

    return execute


def executed_keys(log_path):
    if not os.path.exists(log_path):
        return []
    with open(log_path, encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def test_plan_expands_ab_target_to_seed_paired_specs():
    specs = plan_campaign(["fig7a"], runs=2, duration=6.0, seed=1)
    assert len(specs) == 12  # 3 settings x 2 seeds x (af, atk)
    assert {s.seed for s in specs} == {1, 2}
    assert sum(1 for s in specs if s.attacked) == 6


def test_plan_text_target_is_single_spec():
    specs = plan_campaign(["fig12a"], **KW)
    assert len(specs) == 1
    assert specs[0].kind == "text"


def test_plan_dedups_overlapping_targets():
    merged = plan_campaign(["fig7", "fig7a"], **KW)
    alone = plan_campaign(["fig7"], **KW)
    assert len(merged) == len(alone)
    # Fig 7c/d/e each vary one knob around Fig 7a's wN setting (20 s TTL,
    # 30 m spacing, one direction): that point is one run pair, planned by
    # fig7a and read by all four panels.
    assert len(alone) == 24

    def setting_keys(target, level):
        settings = campaign.AB_TARGETS[target].settings(KW["duration"], KW["seed"])
        config = dict(settings)[level]
        specs = campaign.plan_target(target, **KW)
        return [s.key for s in specs if s.config == config]

    wn_keys = setting_keys("fig7a", "wN")
    assert len(wn_keys) == 2
    assert {s.target for s in alone if s.key in wn_keys} == {"fig7a"}
    for panel, level in (
        ("fig7c", "ttl=20s"),
        ("fig7d", "i=30m"),
        ("fig7e", "1 direction(s)"),
    ):
        assert setting_keys(panel, level) == wn_keys


def test_run_spec_key_is_hashed_once_per_spec(monkeypatch):
    """Planning and every later lookup of a spec's key (its description,
    its queue job id) hash the spec's config once."""
    hashed = []
    for_config = RunKey.for_config

    def counting(config, *, seed, attacked):
        hashed.append(seed)
        return for_config(config, seed=seed, attacked=attacked)

    monkeypatch.setattr(RunKey, "for_config", staticmethod(counting))
    specs = plan_campaign(["fig7a"], **KW)
    for spec in specs:
        assert spec.key.config_hash in spec.describe()
        assert job_id_for(spec.key).startswith(spec.key.config_hash)
    assert len(specs) == 6
    assert len(hashed) == len(specs)


def test_resolve_targets_expands_aliases_and_rejects_unknown():
    assert resolve_targets(["fig7"])[:2] == ["fig7a", "fig7b"]
    with pytest.raises(CampaignError):
        resolve_targets(["fig99"])


def test_plan_keys_of_existing_stores_are_pinned():
    """Campaigns already on disk were stored under these keys: a change to
    a target's settings or their order orphans them."""
    specs = plan_campaign(
        campaign.CAMPAIGN_TARGETS, runs=2, duration=10.0, seed=1
    )
    keys = "\n".join(
        f"{s.target} {s.key.config_hash} {s.seed} {int(s.attacked)}"
        for s in specs
    )
    assert len(specs) == 278
    assert hashlib.sha256(keys.encode()).hexdigest() == (
        "cf5a8660b237aa29c34a29cd60b14580b49ae90c123903fdb2e42021af7b5033"
    )


def synthetic_result(spec):
    """A RunResult whose numbers vary with the run's key, so every
    series, table and note of an artefact renders distinct values."""
    salt = int(spec.key.config_hash[:6], 16) + 7 * spec.seed
    rate = 0.2 + (salt % 60) / 100.0 - (0.15 if spec.attacked else 0.0)
    outcomes = [
        PacketOutcome(
            packet_id=(spec.seed, i),
            send_time=float(i),
            source_x=1990.0 + i,
            direction=1,
            success=(salt + i) % 5 / 4.0,
            in_fully_covered_area=i % 2 == 0,
        )
        for i in range(4)
    ]
    return RunResult(
        seed=spec.seed,
        attacked=spec.attacked,
        binned=BinnedRates(
            bin_width=spec.config.bin_width, rates=[rate, None, rate / 2]
        ),
        overall_rate=rate,
        n_packets=10 + salt % 7,
        outcomes=outcomes,
        extras={
            "detect_first_detection_s": float(salt % 3) - 1.0,
            "detect_windows_flagged": float(salt % 2),
            "detect_windows_total": 8.0,
            "detect_alerts_total": float(salt % 11),
            "replays_sent": float(salt % 13),
        },
    )


@pytest.mark.parametrize("target", list(campaign.AB_TARGETS))
def test_plan_and_assembly_agree(target, tmp_path):
    """Assembly reads exactly the runs the planner planned: a store holding
    synthetic results under the planned keys renders like the target fed
    the same results directly, and lacks nothing without one of them."""
    plan = dict(runs=2, duration=10.0, seed=1)
    specs = campaign.plan_target(target, **plan)
    results = {spec.key: synthetic_result(spec) for spec in specs}

    def ab(config):
        runs = [
            results[RunKey.for_config(cfg, seed=s, attacked=a)]
            for cfg, a, s in expand_jobs(config, plan["runs"])
        ]
        return AbResult(
            config=config,
            af_runs=[r for r in runs if not r.attacked],
            atk_runs=[r for r in runs if r.attacked],
        )

    expected = campaign.AB_TARGETS[target].evaluate(
        ab, duration=plan["duration"], seed=plan["seed"]
    ).format()
    store = make_store(tmp_path)
    *present, absent = specs
    for spec in present:
        campaign._store_result(store, spec, results[spec.key])
    with pytest.raises(MissingRunError):
        assemble_target(target, store, **plan)
    campaign._store_result(store, absent, results[absent.key])
    assert assemble_target(target, store, **plan) == expected


# ----------------------------------------------------------------------
# resume: stored runs are not re-executed
# ----------------------------------------------------------------------
def test_resume_executes_only_missing_runs(tmp_path, monkeypatch):
    log_path = str(tmp_path / "executed.log")
    monkeypatch.setattr(campaign, "execute_spec", recording_execute(log_path))
    store = make_store(tmp_path)

    specs = plan_campaign(["fig7a"], **KW)
    prestored = specs[: len(specs) // 2]
    for spec in prestored:
        store.put_run(spec.key, fake_result(spec), config=spec.config)

    report = run_service_campaign(
        ["fig7a"], store=store, workers=2, settings=FAST, **KW
    )
    assert report.skipped == len(prestored)
    assert report.executed == len(specs) - len(prestored)
    assert report.ok
    executed = executed_keys(log_path)
    assert len(executed) == len(specs) - len(prestored)
    assert not {job_id_for(s.key) for s in prestored} & set(executed)

    # Second campaign: the store is complete, nothing runs at all.
    os.unlink(log_path)
    report2 = run_service_campaign(
        ["fig7a"], store=store, workers=2, settings=FAST, **KW
    )
    assert report2.executed == 0
    assert report2.skipped == len(specs)
    assert executed_keys(log_path) == []


def test_stored_config_hashes_to_its_key(tmp_path, monkeypatch):
    """A run record stores what its run simulates: the config hashes to
    the record's key, so an attack-free run that several attack variants
    share stores no attack setting its world never read."""
    monkeypatch.setattr(
        campaign, "execute_spec", recording_execute(str(tmp_path / "executed.log"))
    )
    store = make_store(tmp_path)
    report = run_service_campaign(
        ["fig7a", "fig7c", "detect"],
        store=store,
        workers=2,
        settings=FAST,
        runs=1,
        duration=1.0,
        seed=1,
    )
    assert not report.failed
    records = [store.get_record(key) for key in store.iter_keys()]
    assert len(records) == report.planned
    assert {record["kind"] for record in records} == {"run"}
    assert any(not record["attacked"] for record in records)
    for record in records:
        assert config_hash(record["config"]) == record["config_hash"]


# ----------------------------------------------------------------------
# crash isolation / retry
# ----------------------------------------------------------------------
def test_crashing_worker_is_retried_then_recorded_failed(tmp_path, monkeypatch):
    """A worker that exits hard (no result, no cleanup) loses its lease;
    the job is retried by a respawned worker, then recorded failed."""
    log_path = str(tmp_path / "executed.log")
    store = make_store(tmp_path)
    specs = plan_campaign(["fig7a"], **KW)
    crash_spec = next(s for s in specs if s.attacked)

    def crashing_execute(spec, checkpoints=None):
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{job_id_for(spec.key)}\n")
        if spec.key == crash_spec.key:
            os._exit(13)  # simulated segfault
        return fake_result(spec)

    monkeypatch.setattr(campaign, "execute_spec", crashing_execute)
    report = run_service_campaign(
        ["fig7a"],
        store=store,
        workers=2,
        settings=WorkerSettings(
            lease_ttl=1.0, heartbeat_interval=0.3, poll_interval=0.05,
            max_attempts=2,
        ),
        **KW,
    )
    # The campaign survived the dead workers and completed everything else.
    assert not report.ok
    assert [s.key for s, _err in report.failed] == [crash_spec.key]
    assert report.respawned >= 2
    for spec in specs:
        if spec.key != crash_spec.key:
            assert store.has(spec.key), spec.describe()
    # The crashed spec was attempted max_attempts times, then recorded failed.
    assert store.get_failure(crash_spec.key) is not None
    assert not store.has(crash_spec.key)
    assert executed_keys(log_path).count(job_id_for(crash_spec.key)) == 2
    assert report.retried == 1
    # The figure cannot assemble while runs are missing...
    assert "fig7a" in report.errors
    with pytest.raises(MissingRunError):
        assemble_target("fig7a", store, duration=6.0, runs=1, seed=1)


def test_raising_worker_is_retried_in_process(tmp_path, monkeypatch):
    """A Python-level exception is caught in the worker, which fails the
    attempt and leases the job again; the report counts the retry."""
    attempts_path = str(tmp_path / "attempts.log")

    def flaky_execute(spec, checkpoints=None):
        with open(attempts_path, "a", encoding="utf-8") as handle:
            handle.write("x")
        # Fail the first attempt of everything, succeed afterwards.
        if os.path.getsize(attempts_path) <= 1:
            raise ValueError("transient failure")
        return "text"

    monkeypatch.setattr(campaign, "execute_spec", flaky_execute)
    report = run_service_campaign(
        ["fig12a"], store=make_store(tmp_path), workers=1, settings=FAST,
        **KW,
    )
    assert report.ok
    assert report.retried == 1
    assert report.executed == 1


def test_timed_out_run_is_recorded_failed(tmp_path, monkeypatch):
    def sleepy_execute(spec, checkpoints=None):
        import time

        time.sleep(30.0)
        return None  # pragma: no cover - killed by the alarm first

    monkeypatch.setattr(campaign, "execute_spec", sleepy_execute)
    store = make_store(tmp_path)
    report = run_service_campaign(
        ["fig12a"],
        store=store,
        workers=1,
        settings=WorkerSettings(
            lease_ttl=5.0, poll_interval=0.05, timeout=0.3, max_attempts=2
        ),
        **KW,
    )
    assert not report.ok
    assert len(report.failed) == 1
    spec, error = report.failed[0]
    assert "RunTimeout" in error
    assert store.get_failure(spec.key) is not None


# ----------------------------------------------------------------------
# store-backed assembly == fresh in-memory run
# ----------------------------------------------------------------------
def test_store_backed_output_identical_to_fresh_run(tmp_path):
    store = make_store(tmp_path)
    report = run_service_campaign(
        ["fig7a"], store=store, workers=2, settings=FAST, **KW
    )
    assert report.ok
    fresh = fig7.fig7a(runs=1, duration=6.0, seed=1).format()
    assert report.outputs["fig7a"] == fresh
    # And assembling again later (fresh process, store only) matches too.
    assert assemble_target(
        "fig7a", store, runs=1, duration=6.0, seed=1
    ) == fresh
