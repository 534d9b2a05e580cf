"""The result-store contract, pinned through the public store API.

Atomic writes, schema versioning, quarantine, batched appends and
concurrent writers from independent processes — the guarantees every
campaign relies on.  Out-of-band tampering (corrupting a record, forging
a schema version) goes through the helpers of ``test_store``.
"""

import multiprocessing

import pytest

from repro.experiments.sqlite_store import SqliteResultStore
from repro.experiments.store import RunKey, SCHEMA_VERSION
from tests.experiments.test_store import (
    RESULTS_LAYOUTS,
    key,
    raw_row,
    results_dir,
    sample_result,
    set_payload,
    set_schema,
)


class Backend:
    """The store under contract test: opens (and reopens) one database."""

    name = "sqlite"

    def __init__(self, path):
        self.path = path

    def open(self):
        return SqliteResultStore(self.path)


@pytest.fixture(params=RESULTS_LAYOUTS)
def backend(request, tmp_path):
    with results_dir(tmp_path, request.param) as path:
        yield Backend(path)


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
def test_run_round_trip(backend):
    store = backend.open()
    result = sample_result()
    store.put_run(key(), result)
    assert store.get_run(key()) == result
    assert store.has(key())
    assert store.get_run(key(seed=99)) is None


def test_text_round_trip(backend):
    store = backend.open()
    k = key(config_hash="table1", attacked=False)
    store.put_text(k, "rendered artefact", params={"seed": 1})
    assert store.get_text(k) == "rendered artefact"
    assert store.has(k)
    assert store.get_run(k) is None  # wrong kind


def test_failure_round_trip_does_not_count_as_done(backend):
    store = backend.open()
    store.put_failure(key(), "worker crashed")
    assert store.get_failure(key()) == "worker crashed"
    assert not store.has(key())  # failures are retried on resume
    assert store.get_run(key()) is None


def test_success_overwrites_failure(backend):
    store = backend.open()
    store.put_failure(key(), "boom")
    store.put_run(key(), sample_result())
    assert store.has(key())
    assert store.get_failure(key()) is None


def test_records_persist_across_reopen(backend):
    store = backend.open()
    store.put_run(key(), sample_result())
    reopened = backend.open()
    assert reopened.get_run(key()) == sample_result()
    assert reopened.count() == 1


def test_iter_keys_and_count(backend):
    store = backend.open()
    keys = [
        key(config_hash="a", seed=1, attacked=False),
        key(config_hash="a", seed=1, attacked=True),
        key(config_hash="b", seed=2, attacked=False),
    ]
    for k in keys:
        store.put_run(k, sample_result(seed=k.seed, attacked=k.attacked))
    assert set(store.iter_keys()) == set(keys)
    assert store.count() == 3


def test_resume_skip_via_has(backend):
    """``has`` drives resume: stored keys skip, failed/absent ones run."""
    store = backend.open()
    done, failed, missing = key(seed=1), key(seed=2), key(seed=3)
    store.put_run(done, sample_result(seed=1))
    store.put_failure(failed, "boom")
    to_run = [k for k in (done, failed, missing) if not store.has(k)]
    assert to_run == [failed, missing]


# ----------------------------------------------------------------------
# schema versioning
# ----------------------------------------------------------------------
def test_schema_mismatch_reads_absent_but_stays_in_place(backend):
    store = backend.open()
    store.put_run(key(), sample_result())
    set_schema(store, key(), SCHEMA_VERSION + 998)
    assert store.get_record(key()) is None
    assert store.get_run(key()) is None
    assert not store.has(key())
    # version skew is evidence, not corruption: no quarantine, row stays
    assert store.quarantine_count() == 0
    assert raw_row(store, "records", key()) is not None


# ----------------------------------------------------------------------
# quarantine of unparseable records
# ----------------------------------------------------------------------
def test_corrupt_record_is_quarantined(backend):
    store = backend.open()
    store.put_run(key(), sample_result())
    set_payload(store, key(), "{truncated")
    assert store.get_record(key()) is None
    assert not store.has(key())
    assert store.quarantine_count() == 1
    # the key reads as absent everywhere, so resume re-runs it
    assert list(store.iter_keys()) == []


def test_quarantined_key_is_rewritable(backend):
    store = backend.open()
    store.put_run(key(), sample_result())
    set_payload(store, key(), "{truncated")
    assert not store.has(key())
    store.put_run(key(), sample_result())  # the re-run lands normally
    assert store.has(key())
    assert store.get_run(key()) == sample_result()
    assert store.quarantine_count() == 1  # evidence kept


# ----------------------------------------------------------------------
# batched appends
# ----------------------------------------------------------------------
def test_batch_writes_are_visible_after_the_block(backend):
    store = backend.open()
    with store.batch():
        store.put_run(key(seed=1), sample_result(seed=1))
        store.put_run(key(seed=2), sample_result(seed=2))
    assert store.count() == 2
    assert store.get_run(key(seed=1)) == sample_result(seed=1)


# ----------------------------------------------------------------------
# concurrent writers
# ----------------------------------------------------------------------
def _writer_process(path, worker, per_worker):
    store = SqliteResultStore(path)
    for n in range(per_worker):
        k = RunKey(config_hash=f"w{worker}", seed=n, attacked=False)
        store.put_run(k, sample_result(seed=n, attacked=False))
    # every worker also hammers one shared key with the identical record
    shared = RunKey(config_hash="shared", seed=0, attacked=False)
    for _ in range(per_worker):
        store.put_run(shared, sample_result(seed=0, attacked=False))


def test_concurrent_writers_do_not_corrupt_records(backend):
    workers, per_worker = 4, 20
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(
            target=_writer_process,
            args=(backend.path, w, per_worker),
        )
        for w in range(workers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    store = backend.open()
    assert store.count() == workers * per_worker + 1
    assert store.quarantine_count() == 0
    for w in range(workers):
        for n in range(per_worker):
            k = RunKey(config_hash=f"w{w}", seed=n, attacked=False)
            assert store.get_run(k) == sample_result(seed=n, attacked=False)
    shared = RunKey(config_hash="shared", seed=0, attacked=False)
    assert store.get_run(shared) == sample_result(seed=0, attacked=False)


def test_describe_names_the_backend(backend):
    assert backend.name in backend.open().describe()


def test_sqlite_batch_rolls_back_atomically(tmp_path):
    """Nothing written inside a failed batch block survives (the store
    half of the mid-commit guarantee)."""
    store = SqliteResultStore(tmp_path / "results.sqlite")
    store.put_run(key(seed=1), sample_result(seed=1))
    with pytest.raises(RuntimeError, match="boom"):
        with store.batch():
            store.put_run(key(seed=2), sample_result(seed=2))
            store.put_run(key(seed=3), sample_result(seed=3))
            raise RuntimeError("boom")
    assert store.count() == 1
    assert store.get_run(key(seed=2)) is None
    # the store is usable again after the rollback
    store.put_run(key(seed=2), sample_result(seed=2))
    assert store.count() == 2
