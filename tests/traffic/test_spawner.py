"""Tests for the entrance spawner policy."""

import math
import random

import pytest

from repro.traffic.road import HORIZONTAL, Direction, Lane
from repro.traffic.spawner import EntranceSpawner

EAST = Lane(index=0, axis=HORIZONTAL, sign=1, lane_coord=2.5, length=1000.0)
WEST = Lane(index=1, axis=HORIZONTAL, sign=-1, lane_coord=7.5, length=1000.0)


def test_spawns_into_empty_lane():
    spawner = EntranceSpawner(spawn_gap=30.0)
    assert spawner.may_spawn(EAST, math.inf)


def test_spawns_when_gap_exceeded():
    spawner = EntranceSpawner(spawn_gap=30.0)
    assert spawner.may_spawn(EAST, 30.01)


def test_refuses_when_gap_too_small():
    spawner = EntranceSpawner(spawn_gap=30.0)
    assert not spawner.may_spawn(EAST, 30.0)
    assert not spawner.may_spawn(EAST, 5.0)


def test_disabled_spawner_refuses():
    spawner = EntranceSpawner(enabled=False)
    assert not spawner.may_spawn(EAST, math.inf)


def test_blocked_direction_refuses_only_that_direction():
    spawner = EntranceSpawner()
    spawner.block(Direction.EAST)
    assert not spawner.may_spawn(EAST, math.inf)
    assert spawner.may_spawn(WEST, math.inf)


def test_unblock_restores_admission():
    spawner = EntranceSpawner()
    spawner.block(Direction.EAST)
    spawner.unblock(Direction.EAST)
    assert spawner.may_spawn(EAST, math.inf)


def test_is_blocked_query():
    spawner = EntranceSpawner()
    assert not spawner.is_blocked(Direction.EAST)
    spawner.block(Direction.EAST)
    assert spawner.is_blocked(Direction.EAST)


def test_gap_jitter_requires_rng():
    with pytest.raises(ValueError):
        EntranceSpawner(gap_jitter=0.3)


def test_gap_jitter_inflates_required_gap():
    spawner = EntranceSpawner(spawn_gap=30.0, gap_jitter=0.5, rng=random.Random(1))
    # A gap just over the base spawn gap is sometimes refused under jitter.
    decisions = {spawner.may_spawn(EAST, 31.0) for _ in range(50)}
    assert decisions == {True, False}
    # But a gap over the maximum inflated requirement is always accepted.
    assert all(spawner.may_spawn(EAST, 46.0) for _ in range(50))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        EntranceSpawner(spawn_gap=0)
    with pytest.raises(ValueError):
        EntranceSpawner(entry_speed=-1)
    with pytest.raises(ValueError):
        EntranceSpawner(gap_jitter=-0.1)
