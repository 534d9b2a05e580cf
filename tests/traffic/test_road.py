"""Tests for road geometry."""

import math

import pytest

from repro.traffic.road import Direction, RoadSegment


def test_default_road_is_paper_default():
    road = RoadSegment()
    assert road.length == 4000.0
    assert road.lanes_per_direction == 2
    assert road.lane_width == 5.0
    assert road.directions == 1
    assert len(road.lanes) == 2


def test_two_direction_road_has_double_lanes():
    road = RoadSegment(directions=2)
    assert len(road.lanes) == 4
    assert len(road.eastbound_lanes) == 2
    assert len(road.westbound_lanes) == 2


def test_lane_centerlines_stack_upward():
    road = RoadSegment(directions=2)
    ys = [lane.y for lane in road.lanes]
    assert ys == [2.5, 7.5, 12.5, 17.5]


def test_total_width():
    assert RoadSegment().total_width == 10.0
    assert RoadSegment(directions=2).total_width == 20.0


def test_eastbound_entrance_at_zero():
    road = RoadSegment()
    assert road.eastbound_lanes[0].point_at(0.0) == (0.0, 2.5)


def test_westbound_entrance_at_length():
    road = RoadSegment(directions=2)
    assert road.westbound_lanes[0].point_at(0.0) == (4000.0, 12.5)


def test_eastbound_progress_is_x():
    road = RoadSegment()
    assert road.eastbound_lanes[0].progress(1234.0) == 1234.0


def test_westbound_progress_measured_from_east_end():
    road = RoadSegment(directions=2)
    assert road.westbound_lanes[0].progress(3000.0) == 1000.0


def test_direction_headings():
    assert Direction.EAST.heading == 0.0
    assert Direction.WEST.heading == pytest.approx(math.pi)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        RoadSegment(length=0)
    with pytest.raises(ValueError):
        RoadSegment(lanes_per_direction=0)
    with pytest.raises(ValueError):
        RoadSegment(directions=3)


def test_lane_indices_unique_and_sequential():
    road = RoadSegment(directions=2, lanes_per_direction=2)
    assert [lane.index for lane in road.lanes] == [0, 1, 2, 3]
