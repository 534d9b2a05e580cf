"""Unit tests for the checkpoint subsystem's building blocks.

World-level round trips and bit-identity live in
``tests/experiments/test_checkpoint_determinism.py``; this file covers the
primitives: restricted pickling and envelope integrity.
"""

import pickle

import pytest

from repro.sim.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    CheckpointError,
    audit_blob,
    decode_envelope,
    encode_envelope,
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


def test_audit_blob_lists_pinned_globals():
    blob = restricted_dumps({"fn": module_level_callback})
    names = audit_blob(blob)
    assert any("module_level_callback" in name for name in names)


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------
def test_envelope_round_trip():
    blob = b"payload bytes" * 100
    envelope = encode_envelope(blob, sim_time=12.5, meta={"target": "t"})
    assert envelope["kind"] == CHECKPOINT_KIND
    assert envelope["version"] == CHECKPOINT_VERSION
    assert envelope["sim_time"] == 12.5
    assert envelope["target"] == "t"
    assert decode_envelope(envelope) == blob


def test_envelope_rejects_wrong_kind():
    envelope = encode_envelope(b"x", sim_time=0.0)
    envelope["kind"] = "result"
    with pytest.raises(CheckpointError, match="kind"):
        decode_envelope(envelope)


def test_envelope_rejects_unknown_version():
    # A newer writer, and the previous layout, whose pickled vehicles and
    # lanes no longer match the traffic classes.
    for version in (CHECKPOINT_VERSION + 1, CHECKPOINT_VERSION - 1):
        envelope = encode_envelope(b"x", sim_time=0.0)
        envelope["version"] = version
        with pytest.raises(CheckpointError, match="version"):
            decode_envelope(envelope)


def test_envelope_rejects_tampered_payload():
    blob = b"payload bytes" * 100
    envelope = encode_envelope(blob, sim_time=0.0)
    other = encode_envelope(b"different", sim_time=0.0)
    envelope["payload_b64"] = other["payload_b64"]
    with pytest.raises(CheckpointError, match="digest"):
        decode_envelope(envelope)


def test_envelope_rejects_garbage_payload():
    envelope = encode_envelope(b"x", sim_time=0.0)
    envelope["payload_b64"] = "%%% not base64 %%%"
    with pytest.raises(CheckpointError):
        decode_envelope(envelope)


def test_envelope_rejects_missing_payload():
    envelope = encode_envelope(b"x", sim_time=0.0)
    del envelope["payload_b64"]
    with pytest.raises(CheckpointError, match="payload"):
        decode_envelope(envelope)


def test_envelope_rejects_non_mapping():
    with pytest.raises(CheckpointError, match="mapping"):
        decode_envelope("not a dict")
