"""Vehicle state.

A :class:`Vehicle` is pure kinematic state — position along the road, speed,
lane — advanced by :class:`~repro.traffic.simulation.TrafficSimulation`.
The networking layer reads positions through the ``position`` property, so a
GeoNode's view is always consistent with the mobility state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.geo.position import Position, PositionVector
from repro.traffic.road import Direction, Lane

_vehicle_counter = itertools.count(1)


def reset_vehicle_ids() -> None:
    """Restart vehicle-id allocation at 1 (fresh-process state).

    Ids are labels only — they never influence simulation behaviour — but
    resetting them lets runs executed back to back in one process produce
    records identical to runs executed in fresh processes."""
    global _vehicle_counter
    _vehicle_counter = itertools.count(1)


def vehicle_id_state():
    """The live vehicle-id counter (captured by checkpoints)."""
    return _vehicle_counter


def set_vehicle_id_state(counter) -> None:
    """Replace the vehicle-id counter (restored by checkpoints)."""
    global _vehicle_counter
    _vehicle_counter = counter


@dataclass(eq=False)
class Vehicle:
    """A vehicle on the road.

    Vehicles compare and hash by identity (``eq=False``): each instance is
    one physical vehicle, and identity hashing lets spatial indexes and
    sets hold vehicles directly.
    """

    lane: Lane
    x: float
    speed: float
    length: float = 4.5
    vehicle_id: int = field(default_factory=lambda: next(_vehicle_counter))
    active: bool = True
    entered_at: float = 0.0
    #: Per-driver preference multiplier on the IDM desired velocity; real
    #: traffic is never perfectly homogeneous, and homogeneity creates
    #: degenerate radio symmetry (identical CBF timers in adjacent lanes).
    speed_factor: float = 1.0
    #: When set, the vehicle ignores IDM and applies this fixed acceleration
    #: (the scripted V1/V2 controller of the Fig 13 curve world sets it
    #: every step).
    forced_acceleration: Optional[float] = None
    #: Slot in the struct-of-arrays :class:`~repro.geonet.fleet.FleetState`;
    #: None when the traffic runs without a fleet (no radios).
    fleet_slot: Optional[int] = None

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("speed must be non-negative")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def direction(self) -> Direction:
        """Direction of travel (from the lane)."""
        return self.lane.direction

    @property
    def position(self) -> Position:
        """Current position in the road plane."""
        return Position(self.x, self.lane.y)

    @property
    def heading(self) -> float:
        """Heading in radians."""
        return self.lane.direction.heading

    @property
    def progress(self) -> float:
        """Distance travelled from the lane entrance."""
        return self.lane.progress(self.x)

    def position_vector(self, now: float) -> PositionVector:
        """The PV this vehicle would advertise in a beacon right now."""
        return PositionVector(
            position=self.position,
            speed=self.speed,
            heading=self.heading,
            timestamp=now,
        )

    def front_x(self) -> float:
        """x-coordinate of the front bumper."""
        return self.x + (self.length / 2) * self.direction.value

    def rear_x(self) -> float:
        """x-coordinate of the rear bumper."""
        return self.x - (self.length / 2) * self.direction.value

    def gap_to(self, leader: "Vehicle") -> float:
        """Net bumper-to-bumper gap to a leader in the same lane."""
        return (
            self.direction.value * (leader.x - self.x)
            - (self.length + leader.length) / 2
        )
