"""Tests for vehicle state."""

import math

import pytest

from repro.geo.position import Position
from repro.traffic.road import HORIZONTAL, VERTICAL, Lane
from repro.traffic.vehicle import Vehicle

EAST_LANE = Lane(index=0, axis=HORIZONTAL, sign=1, lane_coord=2.5, length=4000.0)
WEST_LANE = Lane(index=1, axis=HORIZONTAL, sign=-1, lane_coord=7.5, length=4000.0)


def test_position_combines_x_and_lane_y():
    v = Vehicle(lane=EAST_LANE, s=100.0, speed=30.0)
    assert v.position == Position(100.0, 2.5)


def test_heading_follows_lane_direction():
    assert Vehicle(lane=EAST_LANE, s=0, speed=0).heading == 0.0
    assert Vehicle(lane=WEST_LANE, s=0, speed=0).heading == pytest.approx(math.pi)


def test_progress_eastbound():
    assert Vehicle(lane=EAST_LANE, s=150.0, speed=0).x == 150.0


def test_progress_westbound():
    assert Vehicle(lane=WEST_LANE, s=100.0, speed=0).x == 3900.0


def test_position_vector_snapshot():
    v = Vehicle(lane=EAST_LANE, s=10.0, speed=25.0)
    pv = v.position_vector(now=7.0)
    assert pv.position == Position(10.0, 2.5)
    assert pv.speed == 25.0
    assert pv.timestamp == 7.0


def test_vehicle_ids_unique():
    a = Vehicle(lane=EAST_LANE, s=0, speed=0)
    b = Vehicle(lane=EAST_LANE, s=0, speed=0)
    assert a.vehicle_id != b.vehicle_id


def test_negative_speed_rejected():
    with pytest.raises(ValueError):
        Vehicle(lane=EAST_LANE, s=0, speed=-1.0)


def test_invalid_length_rejected():
    with pytest.raises(ValueError):
        Vehicle(lane=EAST_LANE, s=0, speed=0, length=0)


def test_default_speed_factor_is_one():
    assert Vehicle(lane=EAST_LANE, s=0, speed=0).speed_factor == 1.0


def test_enter_skips_intersections_behind_and_at_the_entry_point():
    lane = Lane(
        index=0,
        axis=VERTICAL,
        sign=1,
        lane_coord=2.0,
        length=400.0,
        cross_s=(0.0, 200.0, 400.0),
        cross_points=(Position(0, 0), Position(0, 200), Position(0, 400)),
    )
    v = Vehicle(lane=lane, s=0.0, speed=0)
    assert v.next_cross == 1
    v.enter(lane, 250.0)
    assert v.next_cross == 2
    assert v.position == Position(2.0, 250.0)
    assert v.heading == pytest.approx(math.pi / 2)
