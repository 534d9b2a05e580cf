"""The lease-based job queue behind the campaign service.

The queue holds one *job* per planned campaign run (keyed by the run's
store key, ``config-hash/s<seed>-<af|atk>``, so a run that several
targets share is one job).  Workers *lease* a job for a TTL, *heartbeat*
to keep the lease while the simulation runs, and either *complete* or
*fail* it.  A worker that dies silently — power loss, OOM kill, SIGKILL
— simply stops heartbeating: its lease expires and the job returns to
the queue for any other worker, which is the whole crash-recovery story.
Attempts are counted per lease, so a job that keeps killing its workers
ends ``failed`` after ``max_attempts`` instead of looping forever.

:class:`LeaseQueue` keeps the queue in the ``jobs`` table of the result
store's own SQLite database, every operation one ``BEGIN IMMEDIATE``
transaction.  Because it shares the store's connection, a worker commits
"result stored + lease completed" atomically.

:class:`LeaseStateMachine` is the same protocol as a pure, clock-free
reference model: the property-based suite
(``tests/properties/test_lease_properties.py``) drives it through
arbitrary event interleavings, and drives the queue and the machine side
by side to check that they agree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional


class JobState:
    """The four job states.  String constants: they serialise as-is."""

    PENDING = "pending"
    LEASED = "leased"
    DONE = "done"
    FAILED = "failed"

    ALL = (PENDING, LEASED, DONE, FAILED)
    TERMINAL = (DONE, FAILED)


@dataclass(frozen=True)
class Lease:
    """A granted lease: which job, which attempt, until when."""

    job_id: str
    attempt: int
    deadline: float


@dataclass
class _Job:
    state: str = JobState.PENDING
    worker: Optional[str] = None
    deadline: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None


class LeaseStateMachine:
    """The pure lease protocol: every queue op as an explicit transition.

    Time is a parameter, never read from a clock, so any interleaving of
    ``lease`` / ``heartbeat`` / ``complete`` / ``fail`` at any timestamps
    is replayable — the property tests exploit exactly that.  Invariants
    the transitions maintain (and the tests assert):

    * every job is in exactly one of the four states;
    * at most one worker holds a live (unexpired) lease on a job;
    * ``done`` and ``failed`` are terminal — no transition leaves them
      (only a later campaign's :meth:`LeaseQueue.seed` re-arms a job);
    * operations by a worker whose lease has expired or was re-granted
      are rejected (returned ``False``), never half-applied.
    """

    def __init__(self, *, max_attempts: int = 3):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self._jobs: Dict[str, _Job] = {}

    # -- setup ----------------------------------------------------------
    def add(self, job_id: str) -> bool:
        """Register a pending job; False if it already exists (unchanged)."""
        if job_id in self._jobs:
            return False
        self._jobs[job_id] = _Job()
        return True

    # -- transitions ----------------------------------------------------
    def _expired(self, job: _Job, now: float) -> bool:
        return (
            job.state == JobState.LEASED
            and job.deadline is not None
            and job.deadline <= now
        )

    def lease(self, worker: str, now: float, ttl: float) -> Optional[Lease]:
        """Grant the first leasable job to ``worker``; None when drained.

        Leasable: ``pending``, or ``leased`` with an expired deadline (the
        crashed-worker path).  First, *every* expired job whose attempts
        are exhausted flips to ``failed`` — not only those sorting before
        the granted job — so which jobs turn failed never depends on
        job-id order (the same sweep :class:`LeaseQueue` runs in SQL).
        """
        for job in self._jobs.values():
            if self._expired(job, now) and job.attempts >= self.max_attempts:
                self._fail_terminal(job, "lease expired; attempts exhausted")
        for job_id in sorted(self._jobs):
            job = self._jobs[job_id]
            if job.state != JobState.PENDING and not self._expired(job, now):
                continue
            job.state = JobState.LEASED
            job.worker = worker
            job.deadline = now + ttl
            job.attempts += 1
            return Lease(job_id=job_id, attempt=job.attempts, deadline=job.deadline)
        return None

    def heartbeat(self, worker: str, job_id: str, now: float, ttl: float) -> bool:
        """Extend ``worker``'s lease; False when it no longer holds one."""
        job = self._jobs.get(job_id)
        if job is None or job.state != JobState.LEASED or job.worker != worker:
            return False
        if self._expired(job, now):
            return False
        job.deadline = now + ttl
        return True

    def complete(self, worker: str, job_id: str) -> bool:
        """Mark ``worker``'s leased job done; False when it lost the lease.

        Deliberately accepted even past the deadline *if nobody re-leased
        the job yet*: the result is already persisted and deterministic,
        so completing late loses nothing — only a lease actually re-granted
        to someone else rejects the stale completer.
        """
        job = self._jobs.get(job_id)
        if job is None or job.state != JobState.LEASED or job.worker != worker:
            return False
        job.state = JobState.DONE
        job.worker = None
        job.deadline = None
        return True

    def fail(self, worker: str, job_id: str, error: str) -> Optional[str]:
        """Report a failed attempt; the job retries or turns terminal.

        Returns the job's resulting state, or None when ``worker`` no
        longer held the lease (the report is then discarded).
        """
        job = self._jobs.get(job_id)
        if job is None or job.state != JobState.LEASED or job.worker != worker:
            return None
        if job.attempts >= self.max_attempts:
            self._fail_terminal(job, error)
        else:
            job.state = JobState.PENDING
            job.worker = None
            job.deadline = None
            job.error = error
        return job.state

    def _fail_terminal(self, job: _Job, error: str) -> None:
        job.state = JobState.FAILED
        job.worker = None
        job.deadline = None
        job.error = error

    # -- queries --------------------------------------------------------
    def state_of(self, job_id: str) -> Optional[str]:
        job = self._jobs.get(job_id)
        return None if job is None else job.state

    def holder_of(self, job_id: str, now: float) -> Optional[str]:
        """The worker holding a live lease on ``job_id``, if any."""
        job = self._jobs.get(job_id)
        if job is None or job.state != JobState.LEASED or self._expired(job, now):
            return None
        return job.worker

    def counts(self, now: Optional[float] = None) -> Dict[str, int]:
        """Jobs per state; with ``now``, expired leases count as pending."""
        result = {state: 0 for state in JobState.ALL}
        for job in self._jobs.values():
            if now is not None and self._expired(job, now):
                result[JobState.PENDING] += 1
            else:
                result[job.state] += 1
        return result

    def all_terminal(self, now: float) -> bool:
        """True when no job is pending or holds a live lease."""
        counts = self.counts(now)
        return counts[JobState.PENDING] == 0 and counts[JobState.LEASED] == 0

    def errors(self) -> Dict[str, str]:
        """``{job_id: error}`` of the terminally failed jobs."""
        return {
            job_id: job.error or "failed"
            for job_id, job in self._jobs.items()
            if job.state == JobState.FAILED
        }

    def deadlines(self, now: float) -> Dict[str, float]:
        """``{job_id: deadline}`` of the live (unexpired) leases."""
        return {
            job_id: job.deadline
            for job_id, job in self._jobs.items()
            if job.state == JobState.LEASED
            and job.deadline is not None
            and not self._expired(job, now)
        }

    # -- snapshot -------------------------------------------------------
    def to_dict(self) -> Dict[str, Dict]:
        return {
            job_id: {
                "state": job.state,
                "worker": job.worker,
                "deadline": job.deadline,
                "attempts": job.attempts,
                "error": job.error,
            }
            for job_id, job in self._jobs.items()
        }


# ----------------------------------------------------------------------
# the persistent queue
# ----------------------------------------------------------------------
class LeaseQueue:
    """Queue state in the SQLite result store's ``jobs`` table.

    Shares the :class:`~repro.experiments.sqlite_store.SqliteResultStore`
    connection, so calls made inside ``store.batch()`` join the store's
    transaction — that is how a worker persists its result and completes
    its lease in one atomic commit.  All methods are safe to call from
    independent processes; ``clock`` is injectable for tests but must be
    a wall clock in production — lease deadlines are compared across
    processes.
    """

    def __init__(
        self,
        store,
        *,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.time,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.store = store
        self.max_attempts = max_attempts
        self.clock = clock

    # -- queue ops ------------------------------------------------------
    def seed(self, job_ids: Iterable[str]) -> int:
        """Arm jobs as pending; returns how many were armed.

        New jobs are added.  A job an earlier campaign left terminal
        (``failed``, or ``done`` although the caller found no stored
        result) or holding an expired lease is re-armed with no attempts
        and no error.  Pending jobs and live leases are left alone, so
        campaigns sharing one store cooperate.
        """
        now = self.clock()
        armed = 0
        with self.store._txn() as conn:
            for job_id in job_ids:
                cursor = conn.execute(
                    "INSERT INTO jobs (job_id, state, attempts) "
                    "VALUES (?, ?, 0) "
                    "ON CONFLICT (job_id) DO UPDATE SET state=excluded.state, "
                    "worker=NULL, deadline=NULL, attempts=0, error=NULL "
                    "WHERE state IN (?, ?) OR (state=? AND deadline<=?)",
                    (
                        job_id,
                        JobState.PENDING,
                        JobState.DONE,
                        JobState.FAILED,
                        JobState.LEASED,
                        now,
                    ),
                )
                armed += cursor.rowcount
        return armed

    def lease(self, worker: str, *, ttl: float) -> Optional[Lease]:
        now = self.clock()
        with self.store._txn() as conn:
            # Every expired lease out of attempts turns failed first, so
            # the sweep never depends on which job the grant picks.
            conn.execute(
                "UPDATE jobs SET state=?, worker=NULL, deadline=NULL, "
                "error='lease expired; attempts exhausted' "
                "WHERE state=? AND deadline<=? AND attempts>=?",
                (JobState.FAILED, JobState.LEASED, now, self.max_attempts),
            )
            row = conn.execute(
                "SELECT job_id, attempts FROM jobs "
                "WHERE state=? OR (state=? AND deadline<=?) "
                "ORDER BY job_id LIMIT 1",
                (JobState.PENDING, JobState.LEASED, now),
            ).fetchone()
            if row is None:
                return None
            job_id, attempts = row
            deadline = now + ttl
            conn.execute(
                "UPDATE jobs SET state=?, worker=?, deadline=?, attempts=? "
                "WHERE job_id=?",
                (JobState.LEASED, worker, deadline, attempts + 1, job_id),
            )
            return Lease(job_id=job_id, attempt=attempts + 1, deadline=deadline)

    def heartbeat(self, worker: str, job_id: str, *, ttl: float) -> bool:
        now = self.clock()
        with self.store._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET deadline=? "
                "WHERE job_id=? AND state=? AND worker=? AND deadline>?",
                (now + ttl, job_id, JobState.LEASED, worker, now),
            )
            return cursor.rowcount == 1

    def complete(self, worker: str, job_id: str) -> bool:
        with self.store._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state=?, worker=NULL, deadline=NULL "
                "WHERE job_id=? AND state=? AND worker=?",
                (JobState.DONE, job_id, JobState.LEASED, worker),
            )
            return cursor.rowcount == 1

    def fail(self, worker: str, job_id: str, error: str) -> Optional[str]:
        with self.store._txn() as conn:
            row = conn.execute(
                "SELECT attempts FROM jobs "
                "WHERE job_id=? AND state=? AND worker=?",
                (job_id, JobState.LEASED, worker),
            ).fetchone()
            if row is None:
                return None
            new_state = (
                JobState.FAILED
                if int(row[0]) >= self.max_attempts
                else JobState.PENDING
            )
            conn.execute(
                "UPDATE jobs SET state=?, worker=NULL, deadline=NULL, error=? "
                "WHERE job_id=?",
                (new_state, error, job_id),
            )
            return new_state

    def counts(self) -> Dict[str, int]:
        now = self.clock()
        rows = self.store._conn().execute(
            "SELECT CASE WHEN state=? AND deadline<=? THEN ? ELSE state END "
            "AS effective, COUNT(*) FROM jobs GROUP BY effective",
            (JobState.LEASED, now, JobState.PENDING),
        ).fetchall()
        result = {state: 0 for state in JobState.ALL}
        for state, n in rows:
            result[str(state)] = result.get(str(state), 0) + int(n)
        return result

    def all_terminal(self) -> bool:
        """True when no job is pending or holds a live lease."""
        counts = self.counts()
        return counts[JobState.PENDING] == 0 and counts[JobState.LEASED] == 0

    def retried(self, job_ids: Iterable[str]) -> int:
        """Attempts beyond each job's first, summed over ``job_ids``."""
        wanted = set(job_ids)
        rows = self.store._conn().execute(
            "SELECT job_id, attempts FROM jobs WHERE attempts>1"
        ).fetchall()
        return sum(int(n) - 1 for job_id, n in rows if job_id in wanted)

    def errors(self) -> Dict[str, str]:
        rows = self.store._conn().execute(
            "SELECT job_id, error FROM jobs WHERE state=?",
            (JobState.FAILED,),
        ).fetchall()
        return {str(job_id): str(error or "failed") for job_id, error in rows}

    def deadlines(self) -> Dict[str, float]:
        now = self.clock()
        rows = self.store._conn().execute(
            "SELECT job_id, deadline FROM jobs "
            "WHERE state=? AND deadline>?",
            (JobState.LEASED, now),
        ).fetchall()
        return {str(job_id): float(deadline) for job_id, deadline in rows}


def job_id_for(key) -> str:
    """The queue job id of a store key."""
    mode = "atk" if key.attacked else "af"
    return f"{key.config_hash}/s{key.seed}-{mode}"
