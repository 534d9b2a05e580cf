"""The traffic microsimulation loop.

One stepper drives every road shape: a highway
:class:`~repro.traffic.road.RoadSegment` and an urban
:class:`~repro.traffic.grid.GridRoadNetwork` both expose a list of
directed :class:`~repro.traffic.road.Lane` objects.  Each lane is advanced
with vectorised IDM on a fixed time step (100 ms by default); hazards act
as virtual stationary leaders, vehicles turn at the intersections their
lane crosses, spawn at lane entrances and retire past the runout.
Networking layers subscribe via ``on_spawn`` / ``on_exit`` / ``on_step``
callbacks.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.traffic.hazard import HazardEvent
from repro.traffic.idm import IdmParameters, idm_acceleration_array
from repro.traffic.road import HORIZONTAL, Direction, Lane
from repro.traffic.spawner import EntranceSpawner
from repro.traffic.vehicle import Vehicle

#: Mobility events run before same-time network events.
MOBILITY_PRIORITY = -10

#: Half-width of the uniform per-driver speed-factor draw (with an rng).
SPEED_FACTOR_SPREAD = 0.03


def _progress(vehicle: Vehicle) -> float:
    return vehicle.s


class TrafficSimulation:
    """Owns all vehicles and advances them each time step.

    ``road`` is anything with a ``lanes`` list — a
    :class:`~repro.traffic.road.RoadSegment` or a
    :class:`~repro.traffic.grid.GridRoadNetwork`, whose ``turn_target``
    resolves the turns at the intersections a lane crosses.
    """

    def __init__(
        self,
        road,
        params: Optional[IdmParameters] = None,
        *,
        dt: float = 0.1,
        spawner: Optional[EntranceSpawner] = None,
        rng=None,
        runout: float = 0.0,
        turn_probability: float = 0.25,
        fleet=None,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if runout < 0:
            raise ValueError("runout must be non-negative")
        if not 0.0 <= turn_probability <= 1.0:
            raise ValueError("turn_probability must be in [0, 1]")
        self.road = road
        self.params = params or IdmParameters()
        self.dt = dt
        self.spawner = spawner
        #: Source of driver heterogeneity (speed preferences, initial
        #: placement jitter) and turn decisions.  None gives perfectly
        #: homogeneous traffic that never turns, which is only appropriate
        #: for unit tests — homogeneous lanes put vehicles radio-
        #: symmetrically and break contention-based protocols in ways real
        #: traffic does not.
        self._rng = rng
        #: Vehicles keep driving this many metres past the end of their
        #: lane before they are retired.  The world beyond a simulated road
        #: is not empty: without a runout, location-table entries of
        #: vehicles that just "fell off the edge" poison greedy forwarding
        #: near the road ends in a way that has no physical counterpart.
        self.runout = runout
        #: At every intersection a vehicle turns left or right with this
        #: probability, split evenly, drawn from ``rng``.
        self.turn_probability = turn_probability
        self.hazards: List[HazardEvent] = []
        #: vehicles per lane index, sorted by progress ascending
        #: (the last element is the furthest along, nearest the exit).
        self._lanes: Dict[int, List[Vehicle]] = {
            lane.index: [] for lane in road.lanes
        }
        self.on_spawn: List[Callable[[Vehicle], None]] = []
        self.on_exit: List[Callable[[Vehicle], None]] = []
        self.on_step: List[Callable[[float], None]] = []
        self.rear_end_contacts = 0
        self.turns_total = 0
        self._process: Optional[PeriodicProcess] = None
        self._now = 0.0
        #: Optional :class:`~repro.geonet.fleet.FleetState`: when set, each
        #: lane step also writes the new kinematics into the fleet's arrays
        #: with one fancy-indexed store per lane (the batched networking
        #: path reads positions from there instead of per-vehicle attrs).
        self._fleet = fleet
        #: lane index -> slot ndarray aligned with the lane's vehicle list;
        #: rebuilt lazily when the lane's membership changes.
        self._fleet_slots: Dict[int, Optional[np.ndarray]] = {}

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_vehicle(self, vehicle: Vehicle) -> None:
        """Insert a vehicle keeping the lane sorted by progress."""
        lane_vehicles = self._lanes[vehicle.lane.index]
        lane_vehicles.append(vehicle)
        lane_vehicles.sort(key=_progress)
        self._fleet_slots.pop(vehicle.lane.index, None)
        for callback in self.on_spawn:
            callback(vehicle)

    def _draw_speed_factor(self) -> float:
        if self._rng is None:
            return 1.0
        return 1.0 + self._rng.uniform(-SPEED_FACTOR_SPREAD, SPEED_FACTOR_SPREAD)

    def populate(self, spacing: float, speed: float = 30.0) -> int:
        """Pre-fill every lane with vehicles ``spacing`` metres apart.

        Returns the number of vehicles created.  This realises the paper's
        "vehicles are 30 meters apart" default density from t=0.  With an
        rng attached, adjacent lanes are phase-staggered by half a spacing
        and every slot is jittered by up to a quarter spacing, as in real
        traffic (and as needed to avoid radio-symmetric vehicle pairs).
        """
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        created: List[Vehicle] = []
        for lane_order, lane in enumerate(self.road.lanes):
            n = int(lane.length // spacing)
            stagger = (lane_order % 2) * spacing / 2 if self._rng is not None else 0.0
            for k in range(n + 1):
                s = k * spacing + stagger
                if self._rng is not None:
                    s += self._rng.uniform(-0.25, 0.25) * spacing
                vehicle = Vehicle(
                    lane=lane,
                    s=min(max(s, 0.0), lane.length),
                    speed=speed,
                    length=self.params.vehicle_length,
                    entered_at=self._now,
                    speed_factor=self._draw_speed_factor(),
                )
                self._lanes[lane.index].append(vehicle)
                created.append(vehicle)
        for lane_vehicles in self._lanes.values():
            lane_vehicles.sort(key=_progress)
        self._fleet_slots.clear()
        for vehicle in created:
            for callback in self.on_spawn:
                callback(vehicle)
        return len(created)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def vehicles(
        self, direction: Optional[Direction] = None, *, on_road_only: bool = False
    ) -> Iterable[Vehicle]:
        """Iterate active vehicles, optionally filtered by direction.

        ``on_road_only`` excludes vehicles in the runout zone beyond the
        end of their lane (they still drive and keep their radios on).
        """
        for lane in self.road.lanes:
            if direction is not None and lane.direction is not direction:
                continue
            for vehicle in self._lanes[lane.index]:
                if on_road_only and vehicle.s > lane.length:
                    continue
                yield vehicle

    def count_on_road(self, direction: Optional[Direction] = None) -> int:
        """Number of vehicles on the road proper (runout excluded)."""
        return sum(1 for _ in self.vehicles(direction, on_road_only=True))

    def lane_vehicles(self, lane: Lane) -> List[Vehicle]:
        """The (sorted) vehicles currently in ``lane``."""
        return list(self._lanes[lane.index])

    # ------------------------------------------------------------------
    # hazards
    # ------------------------------------------------------------------
    def add_hazard(self, hazard: HazardEvent) -> None:
        """Register a hazard event (it activates at its start time)."""
        self.hazards.append(hazard)

    def _hazard_progress(self, lane: Lane, now: float) -> float:
        """Progress of the nearest active hazard in ``lane`` (inf if none).

        Hazards sit at an x on the road axis, so they block horizontal
        lanes only."""
        best = math.inf
        if lane.axis == HORIZONTAL:
            for hazard in self.hazards:
                if hazard.blocks(lane.direction, now):
                    best = min(best, lane.progress(hazard.x))
        return best

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, now: float) -> None:
        """Advance all vehicles by one ``dt`` and run turns, exits and
        spawning."""
        self._now = now
        transfers: List[Tuple[Vehicle, Lane, float]] = []
        exits: List[Vehicle] = []
        for lane in self.road.lanes:
            self._step_lane(lane, now, transfers, exits)
        # Turns apply after every lane stepped, so a turning vehicle is
        # never stepped twice in one tick.
        for vehicle, target, s_new in transfers:
            self._leave_lane(vehicle)
            vehicle.enter(target, min(s_new, target.length + self.runout))
            vehicle.turns_taken += 1
            self.turns_total += 1
            lane_vehicles = self._lanes[target.index]
            lane_vehicles.append(vehicle)
            lane_vehicles.sort(key=_progress)
            self._fleet_slots.pop(target.index, None)
            if self._fleet is not None and vehicle.fleet_slot is not None:
                slot = vehicle.fleet_slot
                self._fleet.x[slot], self._fleet.y[slot] = target.point_at(vehicle.s)
                self._fleet.heading[slot] = target.heading
        for vehicle in exits:
            self._leave_lane(vehicle)
            vehicle.active = False
            for callback in self.on_exit:
                callback(vehicle)
        self._spawn(now)
        for callback in self.on_step:
            callback(now)

    def _leave_lane(self, vehicle: Vehicle) -> None:
        self._lanes[vehicle.lane.index].remove(vehicle)
        self._fleet_slots.pop(vehicle.lane.index, None)

    def _step_lane(
        self,
        lane: Lane,
        now: float,
        transfers: List[Tuple[Vehicle, Lane, float]],
        exits: List[Vehicle],
    ) -> None:
        lane_vehicles = self._lanes[lane.index]
        n = len(lane_vehicles)
        if n == 0:
            return
        s = np.array([v.s for v in lane_vehicles])
        speeds = np.array([v.speed for v in lane_vehicles])
        lengths = np.array([v.length for v in lane_vehicles])
        gaps = np.full(n, np.inf)
        lead_speeds = np.zeros(n)
        if n > 1:
            gaps[:-1] = s[1:] - s[:-1] - (lengths[1:] + lengths[:-1]) / 2
            lead_speeds[:-1] = speeds[1:]
        hazard_progress = self._hazard_progress(lane, now)
        if math.isfinite(hazard_progress):
            behind = s < hazard_progress
            if behind.any():
                # The closest vehicle behind the hazard brakes for it; the
                # rest follow their real leaders (who queue up in turn).
                leader_idx = int(np.flatnonzero(behind)[-1])
                hazard_gap = hazard_progress - s[leader_idx] - lengths[leader_idx] / 2
                if hazard_gap < gaps[leader_idx]:
                    gaps[leader_idx] = hazard_gap
                    lead_speeds[leader_idx] = 0.0
        desired = self.params.desired_velocity * np.array(
            [v.speed_factor for v in lane_vehicles]
        )
        accel = idm_acceleration_array(
            speeds, gaps, lead_speeds, self.params, desired_velocities=desired
        )
        for i, vehicle in enumerate(lane_vehicles):
            if vehicle.forced_acceleration is not None:
                accel[i] = vehicle.forced_acceleration
        new_speeds = np.maximum(0.0, speeds + accel * self.dt)
        new_s = s + new_speeds * self.dt
        # Hard anti-overlap guard: IDM with sane parameters never rear-ends,
        # but forced profiles or turn insertions can.  A clamped follower
        # stops short of its leader but never moves backwards.  A clamp
        # only moves the follower of an overlapping pair, so the sequential
        # pass runs only when the vector check finds one.
        half_pairs = (lengths[1:] + lengths[:-1]) / 2
        if n > 1 and (new_s[:-1] > new_s[1:] - half_pairs - 0.1).any():
            for i in range(n - 2, -1, -1):
                limit = new_s[i + 1] - half_pairs[i] - 0.1
                if new_s[i] > limit:
                    self.rear_end_contacts += 1
                    new_s[i] = max(s[i], limit)
                    new_speeds[i] = min(new_speeds[i], new_speeds[i + 1])
        end = lane.length + self.runout
        cross = lane.cross_s
        n_cross = len(cross)
        for vehicle, s_i, speed_i in zip(
            lane_vehicles, new_s.tolist(), new_speeds.tolist()
        ):
            vehicle.s = s_i
            vehicle.speed = speed_i
            k = vehicle.next_cross
            if k < n_cross and cross[k] <= s_i:
                turn = self._draw_turn()
                if turn is None:
                    vehicle.next_cross = k + 1
                else:
                    target, s_cross = self.road.turn_target(lane, k, turn)
                    transfers.append((vehicle, target, s_cross + (s_i - cross[k])))
            elif s_i > end:
                exits.append(vehicle)
        if self._fleet is not None:
            slots = self._fleet_lane_slots(lane.index, lane_vehicles)
            if slots is not None:
                u = new_s if lane.sign > 0 else lane.length - new_s
                axis = self._fleet.x if lane.axis == HORIZONTAL else self._fleet.y
                axis[slots] = u
                self._fleet.speed[slots] = new_speeds

    def _draw_turn(self) -> Optional[str]:
        """``"left"`` / ``"right"`` / ``None`` (straight) at an intersection."""
        p = self.turn_probability
        if p <= 0.0 or self._rng is None:
            return None
        r = self._rng.random()
        if r < p / 2:
            return "left"
        if r < p:
            return "right"
        return None

    def _fleet_lane_slots(
        self, lane_index: int, lane_vehicles: List[Vehicle]
    ) -> Optional[np.ndarray]:
        """The lane's fleet slots, aligned with its sorted vehicle list.

        Rebuilt only when the lane's membership changes (spawn, turn,
        retire and explicit add invalidate the cache); within a step the
        lane order is stable, since IDM followers never pass their leader.
        Returns None while any vehicle has no slot yet — its spawn
        callback assigns one before the next step, so that state is
        transient.
        """
        try:
            return self._fleet_slots[lane_index]
        except KeyError:
            pass
        try:
            slots = np.fromiter(
                (v.fleet_slot for v in lane_vehicles),
                dtype=np.intp,
                count=len(lane_vehicles),
            )
        except TypeError:
            slots = None
        self._fleet_slots[lane_index] = slots
        return slots

    def _spawn(self, now: float) -> None:
        if self.spawner is None:
            return
        for lane in self.road.lanes:
            lane_vehicles = self._lanes[lane.index]
            nearest = lane_vehicles[0].s if lane_vehicles else math.inf
            if self.spawner.may_spawn(lane, nearest):
                vehicle = Vehicle(
                    lane=lane,
                    s=0.0,
                    speed=self.spawner.entry_speed,
                    length=self.params.vehicle_length,
                    entered_at=now,
                    speed_factor=self._draw_speed_factor(),
                )
                lane_vehicles.insert(0, vehicle)
                self._fleet_slots.pop(lane.index, None)
                self.spawner.spawned_count += 1
                for callback in self.on_spawn:
                    callback(vehicle)

    # ------------------------------------------------------------------
    # engine integration
    # ------------------------------------------------------------------
    def start(self, sim: Simulator) -> PeriodicProcess:
        """Schedule the mobility loop on the event engine."""
        if self._process is not None:
            raise RuntimeError("traffic simulation already started")
        self._sim = sim
        self._process = PeriodicProcess(
            sim,
            self.dt,
            self._mobility_tick,
            start_delay=self.dt,
            priority=MOBILITY_PRIORITY,
        )
        return self._process

    def _mobility_tick(self) -> None:
        self.step(self._sim.now)
