"""Tests for vehicle handles."""

import math
from types import SimpleNamespace

import pytest

from repro.geo.position import Position
from repro.traffic.road import VERTICAL, Lane, RoadSegment
from repro.traffic.simulation import TrafficSimulation

ROAD = RoadSegment(length=4000.0, lanes_per_direction=1, directions=2)
EAST_LANE, WEST_LANE = ROAD.lanes


def add(lane, s, speed, road=ROAD):
    return TrafficSimulation(road).add_vehicle(lane, s, speed)


def test_position_combines_x_and_lane_y():
    v = add(EAST_LANE, 100.0, 30.0)
    assert v.position() == Position(100.0, 2.5)


def test_heading_follows_lane_direction():
    assert add(EAST_LANE, 0, 0).heading == 0.0
    assert add(WEST_LANE, 0, 0).heading == pytest.approx(math.pi)


def test_progress_eastbound():
    assert add(EAST_LANE, 150.0, 0).x == 150.0


def test_progress_westbound():
    assert add(WEST_LANE, 100.0, 0).x == 3900.0


def test_position_vector_snapshot():
    v = add(EAST_LANE, 10.0, 25.0)
    pv = v.position_vector(now=7.0)
    assert pv.position == Position(10.0, 2.5)
    assert pv.speed == 25.0
    assert pv.timestamp == 7.0


def test_vehicle_ids_unique():
    traffic = TrafficSimulation(ROAD)
    a = traffic.add_vehicle(EAST_LANE, 0, 0)
    b = traffic.add_vehicle(EAST_LANE, 0, 0)
    assert a.vehicle_id != b.vehicle_id


def test_negative_speed_rejected():
    with pytest.raises(ValueError):
        add(EAST_LANE, 0, -1.0)


def test_default_speed_factor_is_one():
    v = add(EAST_LANE, 0, 0)
    assert v._fleet.speed_factor[v.slot] == 1.0


def test_handle_holds_no_kinematics():
    v = add(EAST_LANE, 10.0, 25.0)
    v.speed = 12.0
    v.forced_acceleration = -1.0
    assert v._fleet.speed[v.slot] == 12.0
    assert v._fleet.accel[v.slot] == -1.0
    v.forced_acceleration = None
    assert v.forced_acceleration is None
    assert set(vars(v)) <= {
        "_fleet", "slot", "lane", "vehicle_id", "entered_at", "active",
        "turns_taken",
    }


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
    traffic = TrafficSimulation(SimpleNamespace(lanes=[lane]))
    v = traffic.add_vehicle(lane, 0.0, 0)
    assert traffic.fleet.next_cross[v.slot] == 1
    w = traffic.add_vehicle(lane, 250.0, 0)
    assert traffic.fleet.next_cross[w.slot] == 2
    assert w.position() == Position(2.0, 250.0)
    assert w.heading == pytest.approx(math.pi / 2)
