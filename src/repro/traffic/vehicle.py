"""Vehicle state.

A :class:`Vehicle` is pure kinematic state — its lane, its progress ``s``
along the lane and its speed — advanced by
:class:`~repro.traffic.simulation.TrafficSimulation`.  Coordinates are
derived through :meth:`~repro.traffic.road.Lane.point_at`, and the
networking layer reads them through the ``position`` property, so a
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
    """A vehicle driving a lane.

    Vehicles compare and hash by identity (``eq=False``): each instance is
    one physical vehicle, and identity hashing lets sets and dicts hold
    vehicles directly.
    """

    lane: Lane
    s: float
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
    #: Index into ``lane.cross_s`` of the next intersection ahead.
    next_cross: int = 0
    turns_taken: int = 0

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("speed must be non-negative")
        if self.length <= 0:
            raise ValueError("length must be positive")
        self.enter(self.lane, self.s)

    def enter(self, lane: Lane, s: float) -> None:
        """Place the vehicle at progress ``s`` of ``lane`` (spawns, turns)."""
        self.lane = lane
        self.s = s
        cross = lane.cross_s
        k = 0
        # Strictly ahead: an intersection at the current position (e.g. the
        # entrance corner a vehicle spawns on) is not a turn opportunity.
        while k < len(cross) and cross[k] <= s + 1e-9:
            k += 1
        self.next_cross = k

    @property
    def direction(self) -> Direction:
        """Direction of travel (from the lane)."""
        return self.lane.direction

    @property
    def x(self) -> float:
        return self.lane.point_at(self.s)[0]

    @property
    def y(self) -> float:
        return self.lane.point_at(self.s)[1]

    @property
    def position(self) -> Position:
        """Current position in the road plane."""
        return Position(*self.lane.point_at(self.s))

    @property
    def heading(self) -> float:
        """Heading in radians."""
        return self.lane.heading

    def position_vector(self, now: float) -> PositionVector:
        """The PV this vehicle would advertise in a beacon right now."""
        return PositionVector(
            position=self.position,
            speed=self.speed,
            heading=self.heading,
            timestamp=now,
        )
