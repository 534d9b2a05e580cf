"""Manhattan-grid streets: directed lanes, intersections and turns.

The highway scenarios drive the paper's 4 km straight
:class:`~repro.traffic.road.RoadSegment`; urban scenarios need a street
*grid* — vehicles that turn at corners, enter at every grid edge, and give
the corner/building shadowing model
(:class:`~repro.radio.shadowing.ManhattanShadowing`) its geometry.

:class:`GridRoadNetwork` is geometry only.  Every street carries one
directed :class:`~repro.traffic.road.Lane` per travel direction, listing
the intersections it crosses, and
:class:`~repro.traffic.simulation.TrafficSimulation` steps these lanes
exactly like highway lanes, moving a vehicle onto the crossing street's
lane when its route turns (:meth:`GridRoadNetwork.turn_target`).

Simplifications (documented, deliberate):

* no signalling or conflict resolution at intersections — crossing flows
  interpenetrate, which is harmless for a radio/protocol study;
* a turning vehicle snaps laterally onto the new lane's centerline (the
  intersection box is ~one lane width wide);
* turn decisions are memoryless — at every intersection a vehicle turns
  left/right with ``turn_probability`` split evenly, drawn from the
  traffic RNG stream, so routes are reproducible per seed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.geo.position import Position
from repro.traffic.road import HORIZONTAL, VERTICAL, Lane


class GridRoadNetwork:
    """Geometry of a regular Manhattan grid anchored at the origin.

    ``streets_x`` vertical streets at x = 0, block_size, ...,
    ``streets_y`` horizontal streets at y = 0, block_size, ...  Every
    street carries one lane per direction (right-hand traffic, lane
    centerlines offset ``lane_width / 2`` from the street centerline).
    """

    def __init__(
        self,
        streets_x: int = 4,
        streets_y: int = 4,
        block_size: float = 250.0,
        lane_width: float = 4.0,
    ):
        if streets_x < 2 or streets_y < 2:
            raise ValueError("the grid needs at least two streets per axis")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if lane_width <= 0 or lane_width >= block_size:
            raise ValueError("lane_width must be in (0, block_size)")
        self.streets_x = streets_x
        self.streets_y = streets_y
        self.block_size = block_size
        self.lane_width = lane_width
        self.width = (streets_x - 1) * block_size  # extent along x
        self.height = (streets_y - 1) * block_size  # extent along y
        self.xs = tuple(i * block_size for i in range(streets_x))
        self.ys = tuple(j * block_size for j in range(streets_y))
        offset = lane_width / 2.0
        self.lanes: List[Lane] = []
        self._by_key: Dict[Tuple[str, int, int], Lane] = {}
        # Right-hand traffic lane offsets: heading +x keeps the lane at
        # center - offset, heading +y at center + offset, and mirrored for
        # the opposite directions.
        for j, cy in enumerate(self.ys):
            points = [Position(cx, cy) for cx in self.xs]
            for sign, lane_y in ((+1, cy - offset), (-1, cy + offset)):
                self._add_lane(
                    HORIZONTAL, j, sign, lane_y, self.width, self.xs, points
                )
        for i, cx in enumerate(self.xs):
            points = [Position(cx, cy) for cy in self.ys]
            for sign, lane_x in ((+1, cx + offset), (-1, cx - offset)):
                self._add_lane(
                    VERTICAL, i, sign, lane_x, self.height, self.ys, points
                )

    def _add_lane(
        self, axis, street_index, sign, lane_coord, length, cross, points
    ) -> None:
        s_vals = [(u if sign > 0 else length - u) for u in cross]
        order = np.argsort(s_vals)
        lane = Lane(
            index=len(self.lanes),
            axis=axis,
            sign=sign,
            lane_coord=lane_coord,
            length=length,
            cross_s=tuple(s_vals[i] for i in order),
            cross_points=tuple(points[i] for i in order),
        )
        self.lanes.append(lane)
        self._by_key[(axis, street_index, sign)] = lane

    def lane(self, axis: str, street_index: int, sign: int) -> Lane:
        return self._by_key[(axis, street_index, sign)]

    def turn_target(self, lane: Lane, cross_index: int, turn: str) -> Tuple[Lane, float]:
        """Lane and entry progress for a ``left``/``right`` turn.

        Returns the perpendicular lane the turn lands on and the progress
        on it corresponding to the intersection center.
        """
        point = lane.cross_points[cross_index]
        if lane.axis == HORIZONTAL:
            # Heading +x: right turn heads -y, left turn +y (and mirrored).
            new_sign = -lane.sign if turn == "right" else lane.sign
            street = self.xs.index(point.x)
            target = self.lane(VERTICAL, street, new_sign)
            return target, target.progress(point.y)
        new_sign = lane.sign if turn == "right" else -lane.sign
        street = self.ys.index(point.y)
        target = self.lane(HORIZONTAL, street, new_sign)
        return target, target.progress(point.x)
