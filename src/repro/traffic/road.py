"""Road geometry: directed lanes, directions and the road segment.

The paper's default scenario is a 4 000 m segment with two 5 m lanes per
direction; vehicles travel along +x (eastbound) or -x (westbound).  Lane
centre-lines are stacked along +y, eastbound lanes first.

A :class:`Lane` is one directed travel lane of either road shape: a
highway lane is simply a lane that crosses no intersections, and the
street lanes of :class:`~repro.traffic.grid.GridRoadNetwork` list the
intersections where their vehicles may turn.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.geo.position import Position

#: Travel axes: horizontal lanes run along x, vertical lanes along y.
HORIZONTAL = "h"
VERTICAL = "v"


class Direction(enum.IntEnum):
    """Direction of travel along the road axis."""

    EAST = 1
    WEST = -1

    @property
    def heading(self) -> float:
        """Heading in radians for a PV (+x is 0, -x is pi)."""
        return 0.0 if self is Direction.EAST else math.pi


@dataclass(frozen=True)
class Lane:
    """One directed travel lane.

    ``axis`` is the travel axis (:data:`HORIZONTAL` = along x,
    :data:`VERTICAL` = along y) and ``sign`` is +1 for travel toward the
    positive axis direction.  ``lane_coord`` is the fixed cross-axis
    coordinate of the centre-line.  Progress ``s`` runs 0..``length`` from
    the lane's entrance; ``cross_s`` lists the intersections ahead in
    s-space (ascending) and ``cross_points`` their centres.
    """

    index: int
    axis: str
    sign: int
    lane_coord: float
    length: float
    cross_s: Tuple[float, ...] = ()
    cross_points: Tuple[Position, ...] = ()

    @property
    def direction(self) -> Direction:
        """Coarse two-valued direction (positive/negative travel), the key
        of the spawner's blocking and of direction-filtered queries."""
        return Direction.EAST if self.sign > 0 else Direction.WEST

    @property
    def heading(self) -> float:
        """Heading in radians of a vehicle driving this lane."""
        if self.axis == HORIZONTAL:
            return 0.0 if self.sign > 0 else math.pi
        return math.pi / 2 if self.sign > 0 else -math.pi / 2

    @property
    def y(self) -> float:
        """Centre-line y of a horizontal lane."""
        return self.lane_coord

    def point_at(self, s: float) -> Tuple[float, float]:
        """(x, y) of progress ``s`` along this lane."""
        u = s if self.sign > 0 else self.length - s
        if self.axis == HORIZONTAL:
            return u, self.lane_coord
        return self.lane_coord, u

    def progress(self, u: float) -> float:
        """Progress of the point at axis coordinate ``u`` (x for a
        horizontal lane, y for a vertical one)."""
        return u if self.sign > 0 else self.length - u


@dataclass(frozen=True)
class RoadSegment:
    """A straight multi-lane road segment starting at x=0."""

    length: float = 4000.0
    lanes_per_direction: int = 2
    lane_width: float = 5.0
    directions: int = 1
    lanes: List[Lane] = field(default_factory=list, compare=False)

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("road length must be positive")
        if self.lanes_per_direction < 1:
            raise ValueError("need at least one lane per direction")
        if self.directions not in (1, 2):
            raise ValueError("directions must be 1 or 2")
        signs = (1, -1)[: self.directions]
        lanes = [
            Lane(
                index=index,
                axis=HORIZONTAL,
                sign=signs[index // self.lanes_per_direction],
                lane_coord=(index + 0.5) * self.lane_width,
                length=self.length,
            )
            for index in range(self.lanes_per_direction * self.directions)
        ]
        object.__setattr__(self, "lanes", lanes)

    @property
    def total_width(self) -> float:
        """Total paved width across all lanes."""
        return self.lanes_per_direction * self.directions * self.lane_width

    @property
    def eastbound_lanes(self) -> List[Lane]:
        return [lane for lane in self.lanes if lane.direction is Direction.EAST]

    @property
    def westbound_lanes(self) -> List[Lane]:
        return [lane for lane in self.lanes if lane.direction is Direction.WEST]
