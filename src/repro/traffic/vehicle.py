"""Vehicle handles.

A vehicle's kinematics live in one slot of a
:class:`~repro.geonet.fleet.FleetState` — the only copy —
and :class:`~repro.traffic.simulation.TrafficSimulation` advances them in
place, lane by lane.  A :class:`Vehicle` is a handle on that slot plus the
per-vehicle facts the arrays do not hold (its lane, id and entry time).
It is also its node's mobility source: ``position()`` and
``position_vector(now)`` read the slot, so a GeoNode's view is always the
traffic's.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.geo.position import Position, PositionVector
from repro.traffic.road import Lane


class Vehicle:
    """A handle on one vehicle's slot in the fleet arrays.

    Created by :class:`~repro.traffic.simulation.TrafficSimulation` only.
    Vehicles compare and hash by identity: each handle is one physical
    vehicle.  Once retired (``active`` False) the slot is recycled and the
    kinematic properties no longer describe this vehicle.
    """

    def __init__(
        self, fleet, slot: int, lane: Lane, vehicle_id: int, entered_at: float
    ):
        self._fleet = fleet
        self.slot = slot
        self.lane = lane
        self.vehicle_id = vehicle_id
        self.entered_at = entered_at
        self.active = True
        self.turns_taken = 0

    @property
    def s(self) -> float:
        """Progress along the lane, metres from its entrance."""
        return self._fleet.s.item(self.slot)

    @property
    def speed(self) -> float:
        return self._fleet.speed.item(self.slot)

    @speed.setter
    def speed(self, value: float) -> None:
        self._fleet.speed[self.slot] = value

    @property
    def forced_acceleration(self) -> Optional[float]:
        """When set, the vehicle ignores IDM and applies this fixed
        acceleration (the scripted V1/V2 controller of the Fig 13 curve
        world sets it every step)."""
        accel = self._fleet.accel.item(self.slot)
        return None if math.isnan(accel) else accel

    @forced_acceleration.setter
    def forced_acceleration(self, value: Optional[float]) -> None:
        self._fleet.accel[self.slot] = math.nan if value is None else value

    @property
    def x(self) -> float:
        return self._fleet.x.item(self.slot)

    @property
    def y(self) -> float:
        return self._fleet.y.item(self.slot)

    @property
    def heading(self) -> float:
        """Heading in radians."""
        return self.lane.heading

    def position(self) -> Position:
        """Current position in the road plane."""
        fleet = self._fleet
        return Position(fleet.x.item(self.slot), fleet.y.item(self.slot))

    def position_vector(self, now: float) -> PositionVector:
        """The PV this vehicle would advertise in a beacon right now."""
        return PositionVector(
            position=self.position(),
            speed=self.speed,
            heading=self.heading,
            timestamp=now,
        )
