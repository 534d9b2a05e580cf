"""Tests for the result store's record format and its SQLite medium.

Out-of-band tampering (corrupting a payload, forging a schema version)
goes straight to the database through the helpers below, as does
:func:`results_dir`, which the store-backed suites use to open their
store in a results directory the removed per-file JSON store wrote into.
"""

import dataclasses
import json
from contextlib import contextmanager

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import BinnedRates, PacketOutcome
from repro.experiments.runner import RunResult
from repro.experiments.sqlite_store import DB_NAME, SqliteResultStore
from repro.experiments.store import (
    SCHEMA_VERSION,
    RunKey,
    StoreError,
    canonical_json,
    config_hash,
    run_result_from_dict,
    run_result_to_dict,
)


def sample_result(seed=7, attacked=True):
    return RunResult(
        seed=seed,
        attacked=attacked,
        binned=BinnedRates(bin_width=100.0, rates=[0.9125, None, 1 / 3]),
        overall_rate=0.7239583,
        n_packets=3,
        outcomes=[
            PacketOutcome(
                packet_id=(12, 3),
                send_time=1.5,
                source_x=250.0,
                direction=1,
                success=True,
                receivers=4,
                denominator=5,
                in_fully_covered_area=True,
                delivery_latency=0.0123,
            ),
            PacketOutcome(
                packet_id=(12, 4),
                send_time=2.5,
                source_x=260.0,
                direction=-1,
                success=False,
                receivers=0,
                denominator=5,
                in_fully_covered_area=False,
                delivery_latency=None,
            ),
        ],
        extras={"frames_sent": 123.0, "wall_time_s": 0.25},
    )


def key(target="figX", seed=7, attacked=True):
    return RunKey(target=target, config_hash="ab12", seed=seed, attacked=attacked)


def make_store(tmp_path):
    return SqliteResultStore(tmp_path / "results.sqlite")


def _where(k):
    return (
        "target=? AND config_hash=? AND seed=? AND attacked=?",
        (k.target, k.config_hash, k.seed, int(k.attacked)),
    )


def set_payload(store, k, payload):
    """Overwrite ``k``'s stored payload text, out of band."""
    where, params = _where(k)
    store._conn().execute(
        f"UPDATE records SET payload=? WHERE {where}", (payload,) + params
    )


def set_schema(store, k, version):
    """Forge ``k``'s record schema version, out of band."""
    where, params = _where(k)
    row = store._conn().execute(
        f"SELECT payload FROM records WHERE {where}", params
    ).fetchone()
    record = json.loads(row[0])
    record["schema"] = version
    store._conn().execute(
        f"UPDATE records SET payload=?, schema=? WHERE {where}",
        (json.dumps(record), version) + params,
    )


def raw_row(store, table, k):
    """``k``'s uninterpreted row in ``table``, or None."""
    where, params = _where(k)
    return store._conn().execute(
        f"SELECT payload FROM {table} WHERE {where}", params
    ).fetchone()


# ----------------------------------------------------------------------
# results directories left by the removed per-file JSON store
# ----------------------------------------------------------------------
#: The results-directory layouts the store-backed suites open their store
#: in.  "sqlite" is a fresh directory; "json" is one the removed per-file
#: JSON store wrote into.  Its files are not migrated (runs are
#: deterministic, so re-running regenerates them): the store must neither
#: read them nor touch them.
RESULTS_LAYOUTS = ["json", "sqlite"]

#: The keys the contract suites write, read and count.
CONTRACT_KEYS = (
    key(),
    key(seed=99),
    key(attacked=False),
    key(target="table1", attacked=False),
)


def plant_json_store(root, keys):
    """Write the files the JSON store kept for ``keys`` under ``root``.

    Per key: the run record ``<target>/<hash>/s<seed>-<atk|af>.json``, a
    checkpoint sidecar under ``_ckpt/`` and a quarantined ``.corrupt``
    checkpoint with its ``.reason``.  Returns ``{path: bytes}``.
    """
    files = {}
    for k in keys:
        folder = root / k.target / k.config_hash
        name = f"s{k.seed}-{'atk' if k.attacked else 'af'}.json"
        record = {
            "schema": SCHEMA_VERSION,
            "kind": "run",
            "target": k.target,
            "config_hash": k.config_hash,
            "seed": k.seed,
            "attacked": k.attacked,
            "result": run_result_to_dict(sample_result(k.seed, k.attacked)),
        }
        files[folder / name] = canonical_json(record).encode()
        files[folder / "_ckpt" / name] = b'{"format": "zlib-1+b64"}'
        files[folder / "_ckpt" / (name + ".corrupt")] = b"\x00garbage"
        files[folder / "_ckpt" / (name + ".corrupt.reason")] = b"bad digest"
    for path, data in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return files


@contextmanager
def results_dir(tmp_path, layout, keys=CONTRACT_KEYS):
    """Yield the database path of a results directory in ``layout``.

    For "json" the directory first gets the JSON store's files for
    ``keys`` (as successful runs, so a store or scheduler that read them
    would skip work it must do); on exit each must be byte-identical.
    """
    root = tmp_path / "results"
    root.mkdir()
    planted = plant_json_store(root, keys) if layout == "json" else {}
    yield root / DB_NAME
    for path, data in planted.items():
        assert path.read_bytes() == data, f"{path} was modified"


def test_store_ignores_json_store_files(tmp_path):
    with results_dir(tmp_path, "json") as path:
        store = SqliteResultStore(path)
        assert store.count() == 0
        assert list(store.iter_keys()) == []
        for k in CONTRACT_KEYS:
            assert not store.has(k)
            assert store.get_run(k) is None
            assert store.get_checkpoint(k) is None
        assert store.quarantine_count() == 0
        assert store.checkpoint_quarantine_count() == 0


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------
def test_run_result_round_trip_is_exact():
    original = sample_result()
    rebuilt = run_result_from_dict(
        json.loads(json.dumps(run_result_to_dict(original)))
    )
    assert rebuilt == original  # floats round-trip bit-exactly through JSON


def test_config_hash_is_stable_and_content_addressed():
    config = ExperimentConfig.inter_area_default(duration=10.0, seed=3)
    same = ExperimentConfig.inter_area_default(duration=10.0, seed=3)
    other = config.with_(duration=11.0)
    assert config_hash(config) == config_hash(same)
    assert config_hash(config) != config_hash(other)
    assert len(config_hash(config)) == 16


def test_config_hash_covers_nested_dataclasses():
    config = ExperimentConfig.inter_area_default(duration=10.0, seed=3)
    tweaked = config.with_(
        road=dataclasses.replace(config.road, length=999.0)
    )
    assert config_hash(config) != config_hash(tweaked)


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_jsonable_rejects_unserialisable():
    with pytest.raises(StoreError):
        canonical_json(object())


# ----------------------------------------------------------------------
# store behaviour
# ----------------------------------------------------------------------
def test_put_get_run(tmp_path):
    store = make_store(tmp_path)
    result = sample_result()
    store.put_run(key(), result)
    assert store.get_run(key()) == result
    assert store.has(key())


def test_get_run_missing_is_none(tmp_path):
    store = make_store(tmp_path)
    assert store.get_run(key()) is None
    assert not store.has(key())


def test_schema_mismatch_treated_as_absent(tmp_path):
    store = make_store(tmp_path)
    store.put_run(key(), sample_result())
    set_schema(store, key(), 999)
    assert store.get_run(key()) is None
    assert not store.has(key())


def test_corrupt_record_treated_as_absent(tmp_path):
    store = make_store(tmp_path)
    store.put_run(key(), sample_result())
    set_payload(store, key(), "{truncated")
    assert store.get_run(key()) is None


# ----------------------------------------------------------------------
# quarantine of unparseable records
# ----------------------------------------------------------------------
def test_corrupt_record_is_quarantined_not_reread_forever(tmp_path):
    store = make_store(tmp_path)
    store.put_run(key(), sample_result())
    set_payload(store, key(), "{truncated")
    assert store.get_record(key()) is None
    # evidence preserved in the quarantine table, the record row gone
    assert raw_row(store, "records", key()) is None
    assert raw_row(store, "quarantine", key()) == ("{truncated",)
    # the key now reads as absent everywhere: the next campaign re-runs it
    assert not store.has(key())
    assert store.get_run(key()) is None
    assert list(store.iter_keys()) == []


def test_non_dict_record_is_quarantined(tmp_path):
    store = make_store(tmp_path)
    store.put_run(key(), sample_result())
    set_payload(store, key(), "[1, 2, 3]")  # valid JSON, wrong shape
    assert store.get_record(key()) is None
    assert raw_row(store, "records", key()) is None
    assert store.quarantine_count() == 1


def test_quarantined_key_is_rewritable(tmp_path):
    store = make_store(tmp_path)
    store.put_run(key(), sample_result())
    set_payload(store, key(), "garbage")
    assert not store.has(key())
    store.put_run(key(), sample_result())  # the re-run lands normally
    assert store.has(key())
    assert store.get_run(key()) == sample_result()


def test_missing_file_is_not_quarantined(tmp_path):
    """A key that was never written is absent, not corrupt."""
    store = make_store(tmp_path)
    assert store.get_record(key()) is None
    assert store.quarantine_count() == 0


def test_schema_mismatch_is_not_quarantined(tmp_path):
    """An incompatible-but-valid record is evidence of a version skew, not
    corruption: it stays in place (absent to readers) for inspection."""
    store = make_store(tmp_path)
    store.put_run(key(), sample_result())
    set_schema(store, key(), 999)
    assert store.get_record(key()) is None
    assert raw_row(store, "records", key()) is not None
    assert store.quarantine_count() == 0


def test_text_records(tmp_path):
    store = make_store(tmp_path)
    k = key(target="table1", attacked=False)
    store.put_text(k, "rendered artefact", params={"seed": 1})
    assert store.get_text(k) == "rendered artefact"
    assert store.has(k)
    assert store.get_run(k) is None  # wrong kind


def test_failure_records_do_not_count_as_done(tmp_path):
    store = make_store(tmp_path)
    store.put_failure(key(), "worker crashed")
    assert store.get_failure(key()) == "worker crashed"
    assert not store.has(key())  # failures are retried by the next campaign
    assert store.get_run(key()) is None


def test_success_overwrites_failure(tmp_path):
    store = make_store(tmp_path)
    store.put_failure(key(), "boom")
    store.put_run(key(), sample_result())
    assert store.has(key())
    assert store.get_failure(key()) is None


def test_iter_keys_and_count(tmp_path):
    store = make_store(tmp_path)
    keys = [
        key(target="a", seed=1, attacked=False),
        key(target="a", seed=1, attacked=True),
        key(target="b", seed=2, attacked=False),
    ]
    for k in keys:
        store.put_run(k, sample_result(seed=k.seed, attacked=k.attacked))
    assert set(store.iter_keys()) == set(keys)
    assert store.count() == 3


def test_invalid_target_name_rejected():
    with pytest.raises(StoreError):
        RunKey(target="../escape", config_hash="ab", seed=1, attacked=False)
    with pytest.raises(StoreError):
        RunKey(target="", config_hash="ab", seed=1, attacked=False)


# ----------------------------------------------------------------------
# drop breakdown (packet-lifecycle ledger)
# ----------------------------------------------------------------------
def test_drop_breakdown_round_trips():
    original = sample_result()
    original.drop_breakdown = {
        "delivered": 27,
        "unreachable-next-hop": 12,
    }
    rebuilt = run_result_from_dict(
        json.loads(json.dumps(run_result_to_dict(original)))
    )
    assert rebuilt == original
    assert rebuilt.drop_breakdown == original.drop_breakdown


def test_missing_drop_breakdown_reads_as_none():
    """Records written before the ledger existed have no key at all."""
    data = run_result_to_dict(sample_result())
    del data["drop_breakdown"]
    rebuilt = run_result_from_dict(json.loads(json.dumps(data)))
    assert rebuilt.drop_breakdown is None


def test_store_round_trips_drop_breakdown(tmp_path):
    store = make_store(tmp_path)
    result = sample_result()
    result.drop_breakdown = {"delivered": 3}
    store.put_run(key(), result)
    assert store.get_run(key()).drop_breakdown == {"delivered": 3}
