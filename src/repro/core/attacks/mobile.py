"""A mobile inter-area attacker riding the traffic flow.

The roadside mast of the paper is trivially locatable: its replays always
originate from one spot.  A mobile attacker (a compromised vehicle or a
drone pacing the flow) carries the same replay primitive along a waypoint
path — down the highway, or along a street of the Manhattan grid — which
moves the poisoned region with it and spreads the evidence over the whole
route.

The radio stays a :class:`RoadsideAttacker` interface whose position
callback reads ``self.position``, in the static fleet slot the channel
claimed for it; a periodic process advances the position along the path
and moves that slot with :meth:`~repro.geonet.fleet.FleetState.move`, so
receiver lookups see the mast where it is.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.attacks.inter_area import InterAreaInterceptor
from repro.geo.position import Position
from repro.sim.process import PeriodicProcess


class MobileInterceptor(InterAreaInterceptor):
    """Replays every overheard beacon while traversing a cyclic path."""

    def __init__(
        self,
        *,
        path: Sequence[Position],
        speed: float,
        update_interval: float = 0.5,
        **kwargs,
    ):
        if len(path) < 2:
            raise ValueError("path needs at least two waypoints")
        if speed <= 0:
            raise ValueError("speed must be positive")
        if update_interval <= 0:
            raise ValueError("update_interval must be positive")
        kwargs.setdefault("position", path[0])
        super().__init__(**kwargs)
        self.path: List[Position] = list(path)
        self.speed = float(speed)
        self.update_interval = float(update_interval)
        self._leg_lengths = [
            a.distance_to(b) for a, b in zip(self.path, self.path[1:])
        ]
        self._total_length = sum(self._leg_lengths)
        if self._total_length <= 0:
            raise ValueError("path has zero length")
        self._arc = 0.0
        self.distance_travelled = 0.0
        self._mover = PeriodicProcess(
            self.sim, self.update_interval, self._advance,
            start_delay=self.update_interval,
        )

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        step = self.speed * self.update_interval
        self.distance_travelled += step
        # Cyclic traversal: reaching the far end wraps to the start, like a
        # fresh attacker vehicle entering the road — continuous presence.
        self._arc = (self._arc + step) % self._total_length
        self.position = position = self._point_at(self._arc)
        self.channel.fleet.move(self.iface.slot, position.x, position.y)

    def _point_at(self, arc: float) -> Position:
        remaining = arc
        for (start, end), length in zip(
            zip(self.path, self.path[1:]), self._leg_lengths
        ):
            if remaining <= length and length > 0.0:
                t = remaining / length
                return Position(
                    start.x + (end.x - start.x) * t,
                    start.y + (end.y - start.y) * t,
                )
            remaining -= length
        return self.path[-1]

    # ------------------------------------------------------------------
    def stop(self) -> None:
        self._mover.stop()
        super().stop()
