"""Checkpoint-aware run execution: interval snapshots, drain, resume.

:func:`run_single_resumable` is the preemption-safe counterpart of
:func:`~repro.experiments.runner.run_single`.  It simulates the same world
but in segments: every ``interval`` seconds of *simulation* time the whole
world is snapshotted (:mod:`repro.sim.checkpoint`) and persisted as the
run's single checkpoint envelope in the result store — atomically
overwritten in place, so the newest valid checkpoint is always the one on
record.  Because segmented ``run_until`` calls are bit-identical to one
uninterrupted call, a run that resumes from any of these checkpoints
produces the byte-identical final record.

Resume is automatic: if the store holds a valid checkpoint for the run's
key, execution continues from its simulation time instead of t=0.  A
checkpoint that fails validation (unknown version, digest mismatch,
identity mismatch, unpicklable payload) is *quarantined* and the run falls
back to from-scratch execution — a bad checkpoint can cost time, never
correctness.

Preemption: a SIGTERM received mid-run triggers a graceful drain — the
event loop stops at the next event boundary, a final checkpoint is saved,
and :class:`GracefulPreemption` (a ``SystemExit``) unwinds the worker.  The
successor process adopts the checkpoint and re-simulates only the tail.
Checkpoints are garbage-collected when the run completes (the service
worker deletes them in the same transaction that commits the result).
"""

from __future__ import annotations

import math
import signal
from typing import Any, Callable, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RunResult, summarize_world
from repro.experiments.store import (
    ResultStoreBase,
    RunKey,
    SCHEMA_VERSION,
)
from repro.experiments.world import World
from repro.observability.ledger import PacketLedger
from repro.sim.checkpoint import (
    CheckpointError,
    decode_envelope,
    encode_envelope,
)

#: Simulation seconds between checkpoints when checkpointing is enabled
#: without an explicit interval.  Re-simulated time after a crash is less
#: than one interval by construction.  120 sim-seconds keeps the
#: steady-state overhead well under 5% wall on the heaviest (dense-500)
#: scenario — one ~0.25s snapshot per ~9s of simulation wall — while a
#: lost worker re-simulates at most ~10s of wall-clock work.
DEFAULT_CHECKPOINT_INTERVAL = 120.0


class GracefulPreemption(SystemExit):
    """Raised after a SIGTERM-triggered drain checkpoint has been saved.

    A ``SystemExit`` subclass so worker loops treat it as an exit request
    (fail the lease for the successor, then terminate) rather than a
    simulation error.
    """


#: Test seams (module-level so fork-inherited monkeypatches reach worker
#: processes): called as ``hook(key, sim_time)`` after every persisted
#: checkpoint / after a successful checkpoint adoption.  Production leaves
#: both as None.
_post_checkpoint_hook: Optional[Callable[[RunKey, float], None]] = None
_on_resume_hook: Optional[Callable[[RunKey, float], None]] = None


def save_checkpoint(
    store: ResultStoreBase, key: RunKey, world: World
) -> None:
    """Snapshot ``world`` and persist it as ``key``'s checkpoint."""
    envelope = encode_envelope(
        world.snapshot(),
        sim_time=world.sim.now,
        meta={
            "schema": SCHEMA_VERSION,
            "config_hash": key.config_hash,
            "seed": key.seed,
            "attacked": key.attacked,
        },
    )
    store.put_checkpoint(key, envelope)
    if _post_checkpoint_hook is not None:
        _post_checkpoint_hook(key, world.sim.now)


def load_checkpoint(
    store: ResultStoreBase, key: RunKey
) -> Optional[World]:
    """The restored world for ``key``'s stored checkpoint, or None.

    Anything invalid — wrong version, digest mismatch, an envelope written
    for a different run identity, an unpicklable payload — is quarantined
    (evidence preserved) and reads as "no checkpoint": the caller runs
    from scratch.
    """
    envelope = store.get_checkpoint(key)
    if envelope is None:
        return None
    try:
        for field_name, expected in (
            ("config_hash", key.config_hash),
            ("seed", key.seed),
            ("attacked", key.attacked),
        ):
            if envelope.get(field_name) != expected:
                raise CheckpointError(
                    f"checkpoint {field_name}={envelope.get(field_name)!r} "
                    f"does not match run {field_name}={expected!r}"
                )
        world = World.restore(decode_envelope(envelope))
    except CheckpointError as exc:
        store.quarantine_checkpoint(key, str(exc))
        return None
    if _on_resume_hook is not None:
        _on_resume_hook(key, world.sim.now)
    return world


def run_single_resumable(
    config: ExperimentConfig,
    *,
    attacked: bool,
    seed: Optional[int],
    store: ResultStoreBase,
    key: RunKey,
    interval: float = DEFAULT_CHECKPOINT_INTERVAL,
    ledger: Optional[PacketLedger] = None,
) -> RunResult:
    """Run one simulation with interval checkpoints and automatic resume.

    Produces a :class:`RunResult` byte-identical to
    :func:`~repro.experiments.runner.run_single` for the same run (wall-
    clock extras excepted — those describe the executing process, not the
    simulated timeline).  The run's checkpoint is left in the store on
    completion; callers that persist the result delete it alongside
    (``store.delete_checkpoint(key)``) so completed runs carry no
    checkpoint debris.
    """
    if interval <= 0:
        raise ValueError(f"checkpoint interval must be > 0, got {interval!r}")
    world = load_checkpoint(store, key)
    if world is None:
        world = World(config, attacked=attacked, seed=seed, ledger=ledger)

    end_time = world.config.duration
    preempted = False

    def _on_sigterm(signum, frame):
        nonlocal preempted
        preempted = True
        world.sim.stop()

    previous_handler: Any = None
    try:
        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        # Not the main thread (e.g. direct calls from tests) — run without
        # the drain hook; interval checkpointing still works.
        previous_handler = None
    try:
        while world.sim.now < end_time:
            # Next checkpoint boundary strictly after "now" (a restored
            # world starts exactly on one).
            boundary = (math.floor(world.sim.now / interval) + 1) * interval
            segment_end = min(end_time, boundary)
            world.run(duration=segment_end)
            if preempted:
                save_checkpoint(store, key, world)
                raise GracefulPreemption(
                    f"preempted at t={world.sim.now:.3f}; checkpoint saved"
                )
            if world.sim.now < end_time:
                save_checkpoint(store, key, world)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
    return summarize_world(world)


__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "GracefulPreemption",
    "load_checkpoint",
    "run_single_resumable",
    "save_checkpoint",
]
