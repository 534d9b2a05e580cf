"""The result store: one WAL-mode SQLite database per campaign directory.

Each record is the schema-versioned dict of
:class:`~repro.experiments.store.ResultStoreBase`, serialised as compact
JSON into a ``payload`` column keyed by ``(target, config_hash, seed,
attacked)``.  The same database holds the lease queue's ``jobs`` table
(:mod:`repro.experiments.service.leases`) and the run checkpoints:

* **WAL mode** — readers never block writers; independent worker
  processes append concurrently through their own connections, serialised
  only at commit (``busy_timeout`` absorbs contention instead of erroring).
* **Batched atomic appends** — :meth:`SqliteResultStore.batch` coalesces
  every write inside the block into one transaction.  The lease queue
  rides the same connection, so a worker persists its result, completes
  its lease and drops the run's checkpoint in one commit: a SIGKILL
  mid-commit leaves either all or none of it, never a half state.
* **Quarantine** — a row whose payload no longer parses is moved to a
  ``quarantine`` table (evidence preserved, key reads as absent and is
  rewritable).
* **Schema versioning** — rows from an incompatible ``schema`` read as
  absent but stay in place as version-skew evidence.

The records are plain JSON text, so the stdlib ``sqlite3`` shell reads
them without this package::

    sqlite3 results/results.sqlite \
        "SELECT target, seed, attacked, kind FROM records"

Connections are per-thread and per-process: a store object that crosses
a ``fork`` (the service workers) transparently reopens its connection in
the child, and every thread (status-endpoint handlers, lease heartbeats)
gets its own connection — SQLite connections must not be shared across
forks or threads.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from repro.experiments.store import (
    ResultStoreBase,
    RunKey,
    SCHEMA_VERSION,
    StoreError,
)

#: Bumped when the *database* layout (tables/columns) changes incompatibly.
#: Independent of the record SCHEMA_VERSION, which versions payload dicts.
DB_FORMAT_VERSION = 1

#: The database file a campaign keeps in its results directory.
DB_NAME = "results.sqlite"

_CREATE_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    target      TEXT    NOT NULL,
    config_hash TEXT    NOT NULL,
    seed        INTEGER NOT NULL,
    attacked    INTEGER NOT NULL,
    kind        TEXT    NOT NULL,
    schema      INTEGER NOT NULL,
    payload     TEXT    NOT NULL,
    PRIMARY KEY (target, config_hash, seed, attacked)
);
CREATE TABLE IF NOT EXISTS quarantine (
    target      TEXT    NOT NULL,
    config_hash TEXT    NOT NULL,
    seed        INTEGER NOT NULL,
    attacked    INTEGER NOT NULL,
    payload     TEXT    NOT NULL,
    reason      TEXT    NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id   TEXT PRIMARY KEY,
    state    TEXT    NOT NULL,
    worker   TEXT,
    deadline REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    error    TEXT
);
CREATE TABLE IF NOT EXISTS checkpoints (
    target      TEXT    NOT NULL,
    config_hash TEXT    NOT NULL,
    seed        INTEGER NOT NULL,
    attacked    INTEGER NOT NULL,
    sim_time    REAL    NOT NULL,
    payload     TEXT    NOT NULL,
    PRIMARY KEY (target, config_hash, seed, attacked)
);
CREATE TABLE IF NOT EXISTS checkpoint_quarantine (
    target      TEXT    NOT NULL,
    config_hash TEXT    NOT NULL,
    seed        INTEGER NOT NULL,
    attacked    INTEGER NOT NULL,
    payload     TEXT    NOT NULL,
    reason      TEXT    NOT NULL
);
"""


class SqliteResultStore(ResultStoreBase):
    """Result store backed by one SQLite database file (WAL mode)."""

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        busy_timeout_s: float = 30.0,
    ):
        self.path = Path(path)
        self.busy_timeout_s = busy_timeout_s
        # One connection per (thread, process): SQLite connections are
        # neither fork- nor thread-shareable.  Batch state rides with the
        # connection, so a batch is a property of the thread that opened it.
        self._tls = threading.local()
        # Open eagerly so a bad path fails at construction, not first write.
        self._conn()

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    @property
    def _in_batch(self) -> bool:
        return getattr(self._tls, "in_batch", False)

    @_in_batch.setter
    def _in_batch(self, value: bool) -> None:
        self._tls.in_batch = value

    # -- connection management ------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        """This thread's connection, (re)opened after a fork.

        Thread-local so the status endpoint's HTTP handler threads (and
        the workers' heartbeat threads) read through their own
        connections while the executing thread's transactions stay
        isolated to its connection."""
        pid = os.getpid()
        if (
            getattr(self._tls, "connection", None) is None
            or self._tls.connection_pid != pid
        ):
            # A connection inherited over fork must never be used (or even
            # closed) in the child; drop the reference and open fresh.
            self._tls.connection = None
            self._tls.in_batch = False
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, isolation_level=None)
            conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout_s * 1000)}")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_CREATE_SQL)
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("db_format", str(DB_FORMAT_VERSION)),
            )
            row = conn.execute(
                "SELECT value FROM meta WHERE key='db_format'"
            ).fetchone()
            if row is not None and int(row[0]) != DB_FORMAT_VERSION:
                conn.close()
                raise StoreError(
                    f"{self.path} uses database format {row[0]}, "
                    f"this code expects {DB_FORMAT_VERSION}"
                )
            self._tls.connection = conn
            self._tls.connection_pid = pid
        return self._tls.connection

    def close(self) -> None:
        """Close this thread's connection (other threads' stay open)."""
        conn = getattr(self._tls, "connection", None)
        if conn is not None and self._tls.connection_pid == os.getpid():
            conn.close()
        self._tls.connection = None
        self._tls.connection_pid = None

    @contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """One IMMEDIATE transaction — or the enclosing batch's, if open."""
        conn = self._conn()
        if self._in_batch:
            yield conn
            return
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    @contextmanager
    def batch(self) -> Iterator["SqliteResultStore"]:
        """Coalesce all writes in the block into one atomic transaction."""
        conn = self._conn()
        if self._in_batch:  # nested batches join the outer transaction
            yield self
            return
        conn.execute("BEGIN IMMEDIATE")
        self._in_batch = True
        try:
            yield self
        except BaseException:
            self._in_batch = False
            conn.execute("ROLLBACK")
            raise
        self._in_batch = False
        conn.execute("COMMIT")

    # -- raw records ----------------------------------------------------
    def _write_record(self, key: RunKey, record: Dict[str, Any]) -> RunKey:
        payload = json.dumps(record, separators=(",", ":"))
        with self._txn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO records "
                "(target, config_hash, seed, attacked, kind, schema, payload) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    key.target,
                    key.config_hash,
                    key.seed,
                    int(key.attacked),
                    str(record.get("kind", "")),
                    int(record.get("schema", -1)),
                    payload,
                ),
            )
        return key

    def get_record(self, key: RunKey) -> Optional[Dict[str, Any]]:
        """The raw record for ``key``; None if absent, quarantined, or from
        an incompatible schema version (kept in place).  An unparseable
        payload is moved to the ``quarantine`` table so the key reads as
        absent and is re-run by the next campaign."""
        row = self._conn().execute(
            "SELECT schema, payload FROM records "
            "WHERE target=? AND config_hash=? AND seed=? AND attacked=?",
            (key.target, key.config_hash, key.seed, int(key.attacked)),
        ).fetchone()
        if row is None:
            return None
        schema, payload = row
        try:
            record = json.loads(payload)
        except (TypeError, json.JSONDecodeError):
            self._quarantine(key, payload, "unparseable payload")
            return None
        if not isinstance(record, dict):
            self._quarantine(key, payload, "non-dict payload")
            return None
        if record.get("schema") != SCHEMA_VERSION or schema != SCHEMA_VERSION:
            return None
        return record

    def _quarantine(self, key: RunKey, payload: Any, reason: str) -> None:
        """Move a corrupt row aside; best-effort, never raises."""
        try:
            with self._txn() as conn:
                conn.execute(
                    "INSERT INTO quarantine "
                    "(target, config_hash, seed, attacked, payload, reason) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        key.target,
                        key.config_hash,
                        key.seed,
                        int(key.attacked),
                        str(payload),
                        reason,
                    ),
                )
                conn.execute(
                    "DELETE FROM records "
                    "WHERE target=? AND config_hash=? AND seed=? AND attacked=?",
                    (key.target, key.config_hash, key.seed, int(key.attacked)),
                )
        except sqlite3.Error:
            pass

    def quarantine_count(self) -> int:
        return int(
            self._conn().execute("SELECT COUNT(*) FROM quarantine").fetchone()[0]
        )

    # -- checkpoints -----------------------------------------------------
    # Checkpoints live apart from run records: one envelope per key,
    # overwritten in place, invisible to ``iter_keys``/``has``/``count``
    # and deleted when the run commits.  An envelope that does not parse
    # is quarantined here; one that parses but fails validation is
    # quarantined by the resume layer via ``quarantine_checkpoint`` —
    # either way the run restarts from scratch.
    def put_checkpoint(self, key: RunKey, envelope: Dict[str, Any]) -> RunKey:
        payload = json.dumps(envelope, separators=(",", ":"))
        try:
            sim_time = float(envelope.get("sim_time", 0.0))
        except (TypeError, ValueError):
            sim_time = 0.0
        with self._txn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO checkpoints "
                "(target, config_hash, seed, attacked, sim_time, payload) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    key.target,
                    key.config_hash,
                    key.seed,
                    int(key.attacked),
                    sim_time,
                    payload,
                ),
            )
        return key

    def get_checkpoint(self, key: RunKey) -> Optional[Dict[str, Any]]:
        row = self._conn().execute(
            "SELECT payload FROM checkpoints "
            "WHERE target=? AND config_hash=? AND seed=? AND attacked=?",
            (key.target, key.config_hash, key.seed, int(key.attacked)),
        ).fetchone()
        if row is None:
            return None
        try:
            envelope = json.loads(row[0])
        except (TypeError, json.JSONDecodeError):
            self.quarantine_checkpoint(key, "unparseable checkpoint payload")
            return None
        if not isinstance(envelope, dict):
            self.quarantine_checkpoint(key, "non-dict checkpoint payload")
            return None
        return envelope

    def delete_checkpoint(self, key: RunKey) -> None:
        with self._txn() as conn:
            conn.execute(
                "DELETE FROM checkpoints "
                "WHERE target=? AND config_hash=? AND seed=? AND attacked=?",
                (key.target, key.config_hash, key.seed, int(key.attacked)),
            )

    def quarantine_checkpoint(self, key: RunKey, reason: str) -> None:
        try:
            with self._txn() as conn:
                row = conn.execute(
                    "SELECT payload FROM checkpoints "
                    "WHERE target=? AND config_hash=? AND seed=? AND attacked=?",
                    (key.target, key.config_hash, key.seed, int(key.attacked)),
                ).fetchone()
                if row is None:
                    return
                conn.execute(
                    "INSERT INTO checkpoint_quarantine "
                    "(target, config_hash, seed, attacked, payload, reason) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        key.target,
                        key.config_hash,
                        key.seed,
                        int(key.attacked),
                        str(row[0]),
                        reason,
                    ),
                )
                conn.execute(
                    "DELETE FROM checkpoints "
                    "WHERE target=? AND config_hash=? AND seed=? AND attacked=?",
                    (key.target, key.config_hash, key.seed, int(key.attacked)),
                )
        except sqlite3.Error:
            pass

    def checkpoint_quarantine_count(self) -> int:
        return int(
            self._conn().execute(
                "SELECT COUNT(*) FROM checkpoint_quarantine"
            ).fetchone()[0]
        )

    def checkpoint_sim_time(self, key: RunKey) -> Optional[float]:
        """Answered from the indexed ``sim_time`` column — the status
        endpoint polls this per job, so the multi-MiB payload stays cold."""
        row = self._conn().execute(
            "SELECT sim_time FROM checkpoints "
            "WHERE target=? AND config_hash=? AND seed=? AND attacked=?",
            (key.target, key.config_hash, key.seed, int(key.attacked)),
        ).fetchone()
        if row is None:
            return None
        return float(row[0])

    # -- queries --------------------------------------------------------
    def iter_keys(self) -> Iterator[RunKey]:
        rows = self._conn().execute(
            "SELECT target, config_hash, seed, attacked FROM records "
            "ORDER BY target, config_hash, seed, attacked"
        ).fetchall()
        for target, config_hash, seed, attacked in rows:
            try:
                yield RunKey(
                    target=target,
                    config_hash=config_hash,
                    seed=int(seed),
                    attacked=bool(attacked),
                )
            except StoreError:  # pragma: no cover - defensive
                continue

    def count(self) -> int:
        return int(
            self._conn().execute("SELECT COUNT(*) FROM records").fetchone()[0]
        )
