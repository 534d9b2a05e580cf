"""Unit tests for the checkpoint subsystem's building blocks.

World-level round trips and bit-identity live in
``tests/experiments/test_checkpoint_determinism.py``; this file covers the
primitives: restricted pickling and the envelope of a stored checkpoint,
the version and SHA-256 digest kept beside its pickled payload.
"""

import hashlib
import pickle

import pytest

from repro.experiments.world import World
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    restore_world,
    restricted_dumps,
    snapshot_world,
)


# ----------------------------------------------------------------------
# restricted pickling
# ----------------------------------------------------------------------
def module_level_callback():
    return "ok"


class CallableState:
    def __call__(self):
        return "ok"


def test_restricted_dumps_accepts_restorable_callables():
    payload = {
        "bound": CallableState().__call__,
        "module_fn": module_level_callback,
        "instance": CallableState(),
    }
    restored = pickle.loads(restricted_dumps(payload))
    assert restored["module_fn"]() == "ok"
    assert restored["instance"]() == "ok"


def test_restricted_dumps_rejects_lambda_with_descriptive_error():
    with pytest.raises(CheckpointError, match="lambda"):
        restricted_dumps({"cb": lambda: 1})


def test_restricted_dumps_rejects_nested_function():
    def nested():
        return 1

    with pytest.raises(CheckpointError, match="nested"):
        restricted_dumps({"cb": nested})


class FakeWorldWithLambda:
    def __init__(self):
        self.callback = lambda: 1


def test_snapshot_world_wraps_unpicklable_graph_descriptively():
    with pytest.raises(CheckpointError, match="lambda"):
        snapshot_world(FakeWorldWithLambda())


# ----------------------------------------------------------------------
# the envelope: version and digest beside the payload
# ----------------------------------------------------------------------
def test_envelope_round_trip():
    blob = b"payload bytes" * 100
    checkpoint = Checkpoint.of(blob, sim_time=12.5)
    assert checkpoint.version == CHECKPOINT_VERSION
    assert checkpoint.sim_time == 12.5
    assert checkpoint.sha256 == hashlib.sha256(blob).hexdigest()
    assert checkpoint.payload is blob
    assert checkpoint.checked_payload() is blob


def test_envelope_rejects_wrong_kind():
    # A payload that unpickles to something other than a World.
    checkpoint = Checkpoint.of(pickle.dumps({"world": None}), sim_time=0.0)
    with pytest.raises(CheckpointError, match="World"):
        World.restore(checkpoint.checked_payload())


def test_envelope_rejects_unknown_version():
    # A newer writer, and the previous layout, whose pickled object graph
    # no longer matches this build's classes.
    checkpoint = Checkpoint.of(b"x", sim_time=0.0)
    for version in (CHECKPOINT_VERSION + 1, CHECKPOINT_VERSION - 1):
        with pytest.raises(CheckpointError, match="version"):
            checkpoint._replace(version=version).checked_payload()


def test_envelope_rejects_tampered_payload():
    checkpoint = Checkpoint.of(b"payload bytes" * 100, sim_time=0.0)
    blob = checkpoint.payload
    flipped = blob[:7] + bytes([blob[7] ^ 0x01]) + blob[8:]
    with pytest.raises(CheckpointError, match="digest"):
        checkpoint._replace(payload=flipped).checked_payload()


def test_envelope_rejects_garbage_payload():
    # Intact bytes that were never a pickle pass the digest, then fail
    # to unpickle.
    checkpoint = Checkpoint.of(b"not a pickle", sim_time=0.0)
    with pytest.raises(CheckpointError, match="unpickle"):
        restore_world(checkpoint.checked_payload())


def test_envelope_rejects_missing_payload():
    checkpoint = Checkpoint.of(b"payload bytes" * 100, sim_time=0.0)
    for short in (checkpoint.payload[:-20], b""):
        with pytest.raises(CheckpointError, match="digest"):
            checkpoint._replace(payload=short).checked_payload()
