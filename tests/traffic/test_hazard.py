"""Tests for hazard events."""

from repro.traffic.hazard import HazardEvent
from repro.traffic.road import Direction


def test_inactive_before_start_time():
    hazard = HazardEvent(x=100.0, direction=Direction.EAST, start_time=5.0)
    assert not hazard.active(4.9)
    assert hazard.active(5.0)
    assert hazard.active(100.0)


def test_blocks_only_matching_direction():
    hazard = HazardEvent(x=100.0, direction=Direction.EAST, start_time=0.0)
    assert hazard.blocks(Direction.EAST, now=1.0)
    assert not hazard.blocks(Direction.WEST, now=1.0)


def test_blocks_nothing_before_start():
    hazard = HazardEvent(x=100.0, direction=Direction.EAST, start_time=5.0)
    assert not hazard.blocks(Direction.EAST, now=1.0)
