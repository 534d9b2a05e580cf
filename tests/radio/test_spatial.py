"""Unit tests for the uniform-grid spatial index."""

import math
import random

import pytest

from repro.radio.spatial import SpatialGrid


def brute_force(points, x, y, radius):
    r_sq = radius * radius
    out = set()
    for item, (ix, iy) in points.items():
        dx, dy = ix - x, iy - y
        if dx * dx + dy * dy <= r_sq:
            out.add(item)
    return out


def test_invalid_cell_size_rejected():
    with pytest.raises(ValueError):
        SpatialGrid(0.0)
    with pytest.raises(ValueError):
        SpatialGrid(-5.0)


def test_insert_query_remove_roundtrip():
    grid = SpatialGrid(100.0)
    grid.insert("a", 10.0, 10.0)
    grid.insert("b", 50.0, 10.0)
    grid.insert("c", 500.0, 10.0)
    assert len(grid) == 3
    assert "a" in grid
    assert grid.position_of("b") == (50.0, 10.0)
    assert set(grid.items_in_disc(0.0, 0.0, 100.0)) == {"a", "b"}
    grid.remove("b")
    assert len(grid) == 2
    assert "b" not in grid
    assert set(grid.items_in_disc(0.0, 0.0, 100.0)) == {"a"}


def test_duplicate_insert_rejected():
    grid = SpatialGrid(10.0)
    grid.insert("a", 0.0, 0.0)
    with pytest.raises(ValueError):
        grid.insert("a", 5.0, 5.0)


def test_remove_missing_raises():
    grid = SpatialGrid(10.0)
    with pytest.raises(KeyError):
        grid.remove("ghost")


def test_boundary_distance_inclusive():
    """dist == radius is a hit, matching the channel's unit-disk rule."""
    grid = SpatialGrid(100.0)
    grid.insert("edge", 100.0, 0.0)
    assert grid.items_in_disc(0.0, 0.0, 100.0) == ["edge"]
    assert grid.items_in_disc(0.0, 0.0, 99.999) == []


def test_query_returns_distance_squared():
    grid = SpatialGrid(100.0)
    grid.insert("p", 30.0, 40.0)
    [(item, d_sq)] = grid.query_disc(0.0, 0.0, 60.0)
    assert item == "p"
    assert d_sq == pytest.approx(2500.0)


def test_move_within_cell_and_across_cells():
    grid = SpatialGrid(100.0)
    grid.insert("v", 10.0, 10.0)
    grid.move("v", 20.0, 10.0)  # same cell
    assert grid.position_of("v") == (20.0, 10.0)
    assert grid.n_cells == 1
    grid.move("v", 250.0, 10.0)  # crosses cells
    assert grid.position_of("v") == (250.0, 10.0)
    assert grid.n_cells == 1  # old bucket reclaimed
    assert grid.items_in_disc(250.0, 10.0, 1.0) == ["v"]
    assert grid.items_in_disc(20.0, 10.0, 1.0) == []


def test_empty_buckets_are_reclaimed():
    grid = SpatialGrid(50.0)
    for i in range(10):
        grid.insert(i, i * 200.0, 0.0)
    assert grid.n_cells == 10
    for i in range(10):
        grid.remove(i)
    assert grid.n_cells == 0
    assert len(grid) == 0


def test_negative_coordinates():
    grid = SpatialGrid(100.0)
    grid.insert("w", -150.0, -20.0)
    assert grid.items_in_disc(-150.0, -20.0, 10.0) == ["w"]
    assert grid.items_in_disc(150.0, 20.0, 10.0) == []


def test_radius_larger_than_cell_is_exact():
    """Queries beyond one cell ring stay exact (multi-ring walk)."""
    grid = SpatialGrid(50.0)
    points = {}
    rng = random.Random(42)
    for i in range(200):
        x, y = rng.uniform(-2000, 2000), rng.uniform(-200, 200)
        grid.insert(i, x, y)
        points[i] = (x, y)
    for radius in (10.0, 49.9, 50.0, 175.0, 1000.0, 5000.0):
        got = set(grid.items_in_disc(3.0, -7.0, radius))
        assert got == brute_force(points, 3.0, -7.0, radius), radius


def test_randomized_churn_matches_brute_force():
    """Insert/move/remove churn never desynchronises the index."""
    rng = random.Random(7)
    grid = SpatialGrid(120.0)
    points = {}
    next_id = 0
    for _round in range(300):
        op = rng.random()
        if op < 0.4 or not points:
            x, y = rng.uniform(-500, 4500), rng.uniform(-50, 50)
            grid.insert(next_id, x, y)
            points[next_id] = (x, y)
            next_id += 1
        elif op < 0.8:
            item = rng.choice(list(points))
            x, y = rng.uniform(-500, 4500), rng.uniform(-50, 50)
            grid.move(item, x, y)
            points[item] = (x, y)
        else:
            item = rng.choice(list(points))
            grid.remove(item)
            del points[item]
        if _round % 25 == 0:
            qx, qy = rng.uniform(-500, 4500), rng.uniform(-50, 50)
            radius = rng.uniform(0.0, 600.0)
            assert set(grid.items_in_disc(qx, qy, radius)) == brute_force(
                points, qx, qy, radius
            )
    assert len(grid) == len(points)


def test_negative_radius_returns_nothing():
    grid = SpatialGrid(10.0)
    grid.insert("a", 0.0, 0.0)
    assert grid.query_disc(0.0, 0.0, -1.0) == []


def test_zero_radius_hits_exact_point():
    grid = SpatialGrid(10.0)
    grid.insert("a", 5.0, 5.0)
    assert grid.items_in_disc(5.0, 5.0, 0.0) == ["a"]
    assert math.isclose(grid.query_disc(5.0, 5.0, 0.0)[0][1], 0.0)
