"""Property-based tests (hypothesis) for pickled RandomStreams.

A checkpoint is the pickled world, so it relies on a pickle round trip of
:class:`RandomStreams` reproducing every future draw exactly — for stdlib
streams, numpy generators and ``spawn()``-ed child factories alike.  These
properties drive arbitrary interleavings of stream creation and draws,
pickle at an arbitrary point, and require the unpickled factory's
subsequent draws to be bit-identical to the original's.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random import RandomStreams

#: Small alphabets keep hypothesis exploring interleavings, not names.
NAMES = st.sampled_from(["a", "b", "traffic", "attacker"])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: One step of stream usage: (kind, stream name, number of draws).
STEPS = st.lists(
    st.tuples(st.sampled_from(["std", "numpy", "child"]), NAMES,
              st.integers(min_value=0, max_value=5)),
    min_size=0,
    max_size=12,
)


def _apply(streams: RandomStreams, step) -> None:
    kind, name, draws = step
    if kind == "std":
        for _ in range(draws):
            streams.get(name).random()
    elif kind == "numpy":
        for _ in range(draws):
            streams.get_numpy(name).random()
    else:
        child = streams.spawn(name)
        for _ in range(draws):
            child.get(name).random()


def _future_draws(streams: RandomStreams, steps) -> list:
    out = []
    for kind, name, draws in steps:
        if kind == "std":
            out.extend(streams.get(name).random() for _ in range(draws))
        elif kind == "numpy":
            out.extend(
                float(streams.get_numpy(name).random()) for _ in range(draws)
            )
        else:
            child = streams.spawn(name)
            out.extend(child.get(name).random() for _ in range(draws))
    return out


def _round_trip(streams: RandomStreams) -> RandomStreams:
    """What a checkpoint does to the factory: pickle, then unpickle."""
    return pickle.loads(pickle.dumps(streams))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, past=STEPS, future=STEPS)
def test_restore_reproduces_future_draws_exactly(seed, past, future):
    """pickle -> unpickle -> identical future draws."""
    original = RandomStreams(seed)
    for step in past:
        _apply(original, step)
    restored = _round_trip(original)
    assert restored.root_seed == seed
    assert _future_draws(restored, future) == _future_draws(original, future)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, past=STEPS, middle=STEPS, future=STEPS)
def test_snapshot_survives_pickling(seed, past, middle, future):
    """A restored factory pickles again: a checkpoint taken after a
    resume restores the same draws as the uninterrupted run."""
    original = RandomStreams(seed)
    for step in past:
        _apply(original, step)
    resumed = _round_trip(original)
    for step in middle:
        _apply(original, step)
        _apply(resumed, step)
    restored = _round_trip(resumed)
    assert _future_draws(restored, future) == _future_draws(original, future)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, past=STEPS)
def test_snapshot_is_passive(seed, past):
    """Pickling must not advance or perturb any stream."""
    witness = RandomStreams(seed)
    observed = RandomStreams(seed)
    for step in past:
        _apply(witness, step)
        _apply(observed, step)
    pickle.dumps(observed)
    probe = [("std", "a", 3), ("numpy", "b", 3), ("child", "a", 3)]
    assert _future_draws(observed, probe) == _future_draws(witness, probe)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, past=STEPS)
def test_spawned_children_are_covered_recursively(seed, past):
    """Grandchildren drawn from before the pickle restore exactly too."""
    original = RandomStreams(seed)
    for step in past:
        _apply(original, step)
    grandchild = original.spawn("x").spawn("y")
    burned = [grandchild.get("g").random() for _ in range(4)]
    restored = _round_trip(original)
    restored_grandchild = restored.spawn("x").spawn("y")
    next_draws = [grandchild.get("g").random() for _ in range(4)]
    assert [
        restored_grandchild.get("g").random() for _ in range(4)
    ] == next_draws
    assert next_draws != burned  # the stream really advanced


def test_untouched_streams_stay_at_seed_derived_state():
    """Streams never drawn from before the pickle start at their
    seed-derived state on the restored factory."""
    original = RandomStreams(11)
    original.get("used").random()
    restored = _round_trip(original)
    fresh = RandomStreams(11)
    assert (
        restored.get("never_touched").random()
        == fresh.get("never_touched").random()
    )
