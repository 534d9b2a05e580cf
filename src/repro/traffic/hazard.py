"""Hazard events for the traffic-impact study (Fig 11a / Fig 12).

A hazard blocks one direction's lanes at a given position from a given time.
Vehicles approaching it queue behind a virtual stationary leader (IDM with a
zero-speed obstacle); the GeoNetworking layer is responsible for warning
upstream traffic so the entrance stops admitting vehicles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.traffic.road import Direction


@dataclass(frozen=True)
class HazardEvent:
    """Both lanes of ``direction`` blocked at ``x`` from ``start_time`` on."""

    x: float
    direction: Direction
    start_time: float

    def active(self, now: float) -> bool:
        """Whether the hazard is currently blocking the road."""
        return now >= self.start_time

    def blocks(self, lane_direction: Direction, now: float) -> bool:
        """Whether the hazard blocks a lane heading in ``lane_direction``."""
        return self.active(now) and lane_direction is self.direction
