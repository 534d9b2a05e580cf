"""Golden determinism contract of checkpoint/restart.

The bar, from the ISSUE: *restore-then-run is bit-identical to the
uninterrupted run*.  Every test here compares the full serialized
RunResult (per-packet outcomes, binned rates, every ``extras`` counter —
only the two wall-clock perf counters masked, exactly as the existing
crash-recovery suite does) between an uninterrupted run and a run that
was checkpointed mid-flight, persisted through the result store,
restored and finished.

Covered dimensions: the default highway scenario, the same scenario
combined with all four fault-injection dimensions (``batched_faults``:
fleet beacon tick plus link, churn, GPS and beacon-timing faults), and the
urban (Manhattan-grid + shadowing) scenario pack.
"""

import json
import os
import signal

import pytest

from repro.experiments import checkpointing
from repro.experiments.checkpointing import (
    GracefulPreemption,
    run_single_resumable,
    save_checkpoint,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single, summarize_world
from repro.experiments.sqlite_store import SqliteResultStore
from repro.experiments.store import RunKey, config_hash, jsonable
from repro.experiments.world import World, reset_id_counters
from repro.faults import (
    BeaconTimingPlan,
    ChurnPlan,
    FaultPlan,
    GpsFaultPlan,
    LinkFaultPlan,
)
from repro.sim.checkpoint import CHECKPOINT_VERSION, decode_envelope
from tests.experiments.test_store import RESULTS_LAYOUTS, results_dir

DURATION = 6.0
SEED = 3


def _highway():
    return ExperimentConfig.inter_area_default(duration=DURATION, seed=SEED)


def _batched_with_faults():
    return _highway().with_(
        faults=FaultPlan(
            link=LinkFaultPlan(loss_rate=0.05, burst_p=0.02, burst_r=0.3),
            churn=ChurnPlan(mean_uptime=4.0, mean_downtime=1.0),
            gps=GpsFaultPlan(error_stddev=1.5, drift_rate=0.2),
            beacon=BeaconTimingPlan(extra_jitter=0.01),
        ),
    )


def _urban():
    return _highway().urbanized(
        streets_x=3, streets_y=3, block_size=200.0, inter_vehicle_space=80.0
    )


CONFIGS = {
    "highway": _highway,
    "batched_faults": _batched_with_faults,
    "urban": _urban,
}


def masked(result) -> str:
    """Canonical byte string of a RunResult, wall-clock counters masked
    (the idiom of ``test_crash_recovery.canonical``)."""
    data = jsonable(result)
    for counter in ("wall_time_s", "events_per_wall_sec"):
        assert counter in data["extras"]
        data["extras"][counter] = 0.0
    return json.dumps(data, sort_keys=True)


def key_for(config) -> RunKey:
    return RunKey(
        target="ckpt",
        config_hash=config_hash(config),
        seed=SEED,
        attacked=True,
    )


def baseline_for(config) -> str:
    reset_id_counters()
    return masked(run_single(config, attacked=True, seed=SEED))


@pytest.fixture(params=RESULTS_LAYOUTS)
def store(request, tmp_path):
    keys = [key_for(make()) for make in CONFIGS.values()]
    with results_dir(tmp_path, request.param, keys) as path:
        yield SqliteResultStore(path)


@pytest.fixture(autouse=True)
def _clear_hooks(monkeypatch):
    monkeypatch.setattr(checkpointing, "_post_checkpoint_hook", None)
    monkeypatch.setattr(checkpointing, "_on_resume_hook", None)


# ----------------------------------------------------------------------
# the golden contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_restore_then_run_is_bit_identical(name, store):
    """Checkpoint at T/2 through the store, restore, run to T: the final
    record is byte-identical to the uninterrupted run."""
    config = CONFIGS[name]()
    baseline = baseline_for(config)

    reset_id_counters()
    world = World(config, attacked=True, seed=SEED)
    world.run(duration=DURATION / 2)
    key = key_for(config)
    save_checkpoint(store, key, world)
    del world

    # Scramble the module-global allocators to prove the restore path
    # reinstates them rather than inheriting this process's luck.
    reset_id_counters()
    envelope = store.get_checkpoint(key)
    assert envelope is not None
    assert envelope["sim_time"] == DURATION / 2
    restored = World.restore(decode_envelope(envelope))
    assert restored.sim.now == DURATION / 2
    restored.run(duration=DURATION)
    assert masked(summarize_world(restored)) == baseline


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_single_resumable_matches_run_single(name, store):
    """Segmented execution with interval checkpoints writes the identical
    record, and leaves its (GC-able) checkpoint behind."""
    config = CONFIGS[name]()
    baseline = baseline_for(config)
    key = key_for(config)

    reset_id_counters()
    result = run_single_resumable(
        config, attacked=True, seed=SEED, store=store, key=key, interval=2.0
    )
    assert masked(result) == baseline
    # the last interval checkpoint is still in the store until the caller
    # commits the result and garbage-collects it
    assert store.checkpoint_sim_time(key) == 4.0
    store.delete_checkpoint(key)
    assert store.checkpoint_sim_time(key) is None


def test_resume_picks_up_mid_run_checkpoint(store):
    """A stored checkpoint short-circuits the first half of the run."""
    config = _highway()
    baseline = baseline_for(config)
    key = key_for(config)

    reset_id_counters()
    world = World(config, attacked=True, seed=SEED)
    world.run(duration=3.0)
    save_checkpoint(store, key, world)
    del world

    resumed_from = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            checkpointing,
            "_on_resume_hook",
            lambda key, sim_time: resumed_from.append(sim_time),
        )
        reset_id_counters()
        result = run_single_resumable(
            config, attacked=True, seed=SEED, store=store, key=key,
            interval=100.0,
        )
    assert resumed_from == [3.0]  # resumed mid-run, not from scratch
    assert masked(result) == baseline


# ----------------------------------------------------------------------
# quarantine and fallback
# ----------------------------------------------------------------------
def _tampered_cases():
    def corrupt_payload(envelope):
        envelope["payload_b64"] = envelope["payload_b64"][:-20]
        return envelope

    def wrong_version(envelope):
        envelope["version"] = CHECKPOINT_VERSION + 1
        return envelope

    def wrong_identity(envelope):
        envelope["seed"] = 999
        return envelope

    return {
        "corrupt_payload": corrupt_payload,
        "wrong_version": wrong_version,
        "wrong_identity": wrong_identity,
    }


@pytest.mark.parametrize("case", sorted(_tampered_cases()))
def test_bad_checkpoint_quarantined_and_run_falls_back(case, store):
    """A stale/corrupt checkpoint costs time, never correctness: it is
    quarantined (with its evidence) and the run executes from scratch to
    the byte-identical record."""
    config = _highway()
    baseline = baseline_for(config)
    key = key_for(config)

    reset_id_counters()
    world = World(config, attacked=True, seed=SEED)
    world.run(duration=3.0)
    save_checkpoint(store, key, world)
    del world
    envelope = store.get_checkpoint(key)
    store.put_checkpoint(key, _tampered_cases()[case](envelope))

    resumed_from = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            checkpointing,
            "_on_resume_hook",
            lambda key, sim_time: resumed_from.append(sim_time),
        )
        reset_id_counters()
        result = run_single_resumable(
            config, attacked=True, seed=SEED, store=store, key=key,
            interval=100.0,
        )
    assert resumed_from == []  # never adopted the bad checkpoint
    assert masked(result) == baseline
    assert store.checkpoint_quarantine_count() >= 1
    assert store.get_checkpoint(key) is None  # evidence moved aside


# ----------------------------------------------------------------------
# graceful drain on SIGTERM
# ----------------------------------------------------------------------
def test_sigterm_drains_to_checkpoint_and_resume_completes(store):
    """SIGTERM mid-run saves a drain checkpoint and unwinds as a
    ``SystemExit``; a successor resumes from it to the identical record."""
    config = _highway()
    baseline = baseline_for(config)
    key = key_for(config)

    def sigterm_once(key, sim_time):
        if not getattr(sigterm_once, "fired", False):
            sigterm_once.fired = True
            os.kill(os.getpid(), signal.SIGTERM)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checkpointing, "_post_checkpoint_hook", sigterm_once)
        reset_id_counters()
        with pytest.raises(GracefulPreemption):
            run_single_resumable(
                config, attacked=True, seed=SEED, store=store, key=key,
                interval=2.0,
            )
    # interval save at t=2 triggered the signal; the drain ran the next
    # segment to t=4 and saved again before unwinding
    assert store.checkpoint_sim_time(key) == 4.0

    reset_id_counters()
    result = run_single_resumable(
        config, attacked=True, seed=SEED, store=store, key=key, interval=2.0
    )
    assert masked(result) == baseline
