"""Property-based tests (hypothesis) for the lease state machine.

:class:`~repro.experiments.service.leases.LeaseStateMachine` is pure and
clock-free — time is a parameter — so hypothesis can drive it through
arbitrary interleavings of ``lease`` / ``heartbeat`` / ``complete`` /
``fail`` at arbitrary timestamps and assert the protocol invariants
after *every* event:

* every job is always in exactly one of the four states;
* at most one worker holds a live (unexpired) lease on a job — a lease
  is only ever granted when no live holder exists;
* ``done`` and ``failed`` are terminal (absorbing);
* attempts never exceed ``max_attempts``;

and, after quiescence (draining the queue with expired-lease takeover),
every job ends in a terminal state.

The machine is also the reference model of the persistent
:class:`~repro.experiments.service.leases.LeaseQueue`: the same event
interleavings drive both, with an injected clock, and every transition
must return the same value.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.service.leases import (
    JobState,
    LeaseQueue,
    LeaseStateMachine,
)
from repro.experiments.sqlite_store import SqliteResultStore

MAX_ATTEMPTS = 3
WORKERS = ("w0", "w1", "w2")
OPS = ("lease", "heartbeat", "complete", "fail")


@st.composite
def scenarios(draw):
    """A job set plus a raw event interleaving.

    Events reference jobs and workers arbitrarily — including workers
    acting on jobs they never leased and leases long expired — because
    the machine must *reject* invalid transitions, not corrupt state.
    """
    n_jobs = draw(st.integers(min_value=1, max_value=4))
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.sampled_from(WORKERS),
                st.integers(min_value=0, max_value=n_jobs - 1),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    return n_jobs, events


def job_name(index):
    return f"job-{index}"


def pick_target(machine, job_ids, worker, job_index, now):
    """The job a non-lease event acts on: one ``worker`` holds, if any,
    else the event's arbitrary job."""
    target = job_ids[job_index]
    held = [j for j in job_ids if machine.holder_of(j, now) == worker]
    if held and target not in held:
        target = held[0]
    return target


def apply_events(machine, job_ids, events):
    """Replay ``events``, asserting the invariants after every single one.

    Returns the final timestamp.  ``heartbeat``/``complete``/``fail``
    prefer a job the worker actually holds (when it holds any) so the
    happy paths get exercised, but fall back to the event's arbitrary job
    to probe the rejection paths.
    """
    now = 0.0
    terminal_seen = {}
    for op, worker, job_index, dt, ttl in events:
        now += dt
        target = pick_target(machine, job_ids, worker, job_index, now)
        if op == "lease":
            previous_holder = {
                j: machine.holder_of(j, now) for j in job_ids
            }
            lease = machine.lease(worker, now, ttl)
            if lease is not None:
                # granted only when nobody held a live lease on it
                assert previous_holder[lease.job_id] is None
                assert machine.holder_of(lease.job_id, now) == worker
                assert 1 <= lease.attempt <= MAX_ATTEMPTS
                assert lease.deadline == now + ttl
        elif op == "heartbeat":
            acknowledged = machine.heartbeat(worker, target, now, ttl)
            # a heartbeat succeeds iff the worker holds a live lease
            assert acknowledged == (machine.holder_of(target, now) == worker)
        elif op == "complete":
            if machine.complete(worker, target):
                assert machine.state_of(target) == JobState.DONE
        elif op == "fail":
            state = machine.fail(worker, target, "injected failure")
            assert state in (None, JobState.PENDING, JobState.FAILED)
        check_invariants(machine, job_ids, now, terminal_seen)
    return now


def check_invariants(machine, job_ids, now, terminal_seen):
    snapshot = machine.to_dict()
    live_holders = 0
    for job_id in job_ids:
        state = machine.state_of(job_id)
        # exactly one state, always a known one
        assert state in JobState.ALL
        # attempts are bounded
        assert 0 <= snapshot[job_id]["attempts"] <= MAX_ATTEMPTS
        # terminal states are absorbing
        if job_id in terminal_seen:
            assert state == terminal_seen[job_id]
        if state in JobState.TERMINAL:
            terminal_seen[job_id] = state
        if machine.holder_of(job_id, now) is not None:
            live_holders += 1
    counts = machine.counts(now)
    assert sum(counts.values()) == len(job_ids)
    assert counts[JobState.LEASED] >= live_holders  # expired count pending


def drain(machine, job_ids, now):
    """Drive the machine to quiescence as a well-behaved worker would:
    lease whatever is leasable, complete it, jump past deadlines when a
    (possibly dead) holder blocks progress."""
    for _ in range(len(job_ids) * (MAX_ATTEMPTS + 2) + 10):
        lease = machine.lease("drainer", now, 1.0)
        if lease is not None:
            assert machine.complete("drainer", lease.job_id)
            continue
        if machine.all_terminal(now):
            return now
        now += 100.0  # expire whatever some event-phase worker still holds
    raise AssertionError("queue failed to quiesce")


class TestLeaseStateMachineProperties:
    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_invariants_hold_under_arbitrary_interleavings(self, scenario):
        n_jobs, events = scenario
        machine = LeaseStateMachine(max_attempts=MAX_ATTEMPTS)
        job_ids = [job_name(i) for i in range(n_jobs)]
        for job_id in job_ids:
            assert machine.add(job_id)
            assert not machine.add(job_id)  # re-registration is a no-op
        apply_events(machine, job_ids, events)

    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_every_job_is_terminal_after_quiescence(self, scenario):
        n_jobs, events = scenario
        machine = LeaseStateMachine(max_attempts=MAX_ATTEMPTS)
        job_ids = [job_name(i) for i in range(n_jobs)]
        for job_id in job_ids:
            machine.add(job_id)
        now = apply_events(machine, job_ids, events)
        now = drain(machine, job_ids, now)
        assert machine.all_terminal(now)
        for job_id in job_ids:
            state = machine.state_of(job_id)
            assert state in JobState.TERMINAL
            # failed jobs carry an error, done jobs do not appear there
            assert (job_id in machine.errors()) == (state == JobState.FAILED)

    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    # b (job-1) on its last attempt expires while a (job-0) is pending
    # again; the next lease must sweep b to failed before granting a.
    @example(
        (
            2,
            [
                ("lease", "w0", 0, 0.0, 4.0),
                ("lease", "w1", 1, 0.0, 0.1),
                ("lease", "w1", 1, 0.1, 0.1),
                ("lease", "w1", 1, 0.1, 0.1),
                ("fail", "w0", 0, 0.1, 0.1),
                ("lease", "w2", 0, 0.0, 1.0),
                ("complete", "w1", 1, 0.0, 1.0),
            ],
        )
    )
    def test_queue_agrees_with_the_reference_machine(self, scenario):
        n_jobs, events = scenario
        job_ids = [job_name(i) for i in range(n_jobs)]
        machine = LeaseStateMachine(max_attempts=MAX_ATTEMPTS)
        for job_id in job_ids:
            machine.add(job_id)
        now = 0.0
        with tempfile.TemporaryDirectory() as root:
            store = SqliteResultStore(Path(root) / "results.sqlite")
            queue = LeaseQueue(
                store, max_attempts=MAX_ATTEMPTS, clock=lambda: now
            )
            assert queue.seed(job_ids) == n_jobs
            for op, worker, job_index, dt, ttl in events:
                now += dt
                target = pick_target(machine, job_ids, worker, job_index, now)
                if op == "lease":
                    lease = machine.lease(worker, now, ttl)
                    assert queue.lease(worker, ttl=ttl) == lease
                    if lease is None:
                        assert queue.counts() == machine.counts(now)
                        assert queue.errors() == machine.errors()
                elif op == "heartbeat":
                    assert queue.heartbeat(
                        worker, target, ttl=ttl
                    ) == machine.heartbeat(worker, target, now, ttl)
                elif op == "complete":
                    assert queue.complete(worker, target) == machine.complete(
                        worker, target
                    )
                elif op == "fail":
                    assert queue.fail(
                        worker, target, "injected failure"
                    ) == machine.fail(worker, target, "injected failure")
            store.close()

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    )
    def test_late_complete_accepted_only_until_releases(self, ttl, delay):
        """A completion after the deadline is still accepted — unless the
        job was re-leased to someone else in the meantime (then the stale
        completer is rejected)."""
        machine = LeaseStateMachine(max_attempts=MAX_ATTEMPTS)
        machine.add("job-0")
        lease = machine.lease("w0", 0.0, ttl)
        now = lease.deadline + delay
        stolen = machine.lease("w1", now, ttl)
        if stolen is not None:  # expired and re-granted: stale loser
            assert not machine.complete("w0", "job-0")
            assert machine.complete("w1", "job-0")
        else:  # still held (or late but unclaimed): completion lands
            assert machine.complete("w0", "job-0")
        assert machine.state_of("job-0") == JobState.DONE
