"""The traffic microsimulation loop.

One stepper drives every road shape: a highway
:class:`~repro.traffic.road.RoadSegment` and an urban
:class:`~repro.traffic.grid.GridRoadNetwork` both expose a list of
directed :class:`~repro.traffic.road.Lane` objects.  Each lane is advanced
with vectorised IDM on a fixed time step (100 ms by default); hazards act
as virtual stationary leaders, vehicles turn at the intersections their
lane crosses, spawn at lane entrances and retire past the runout.

The kinematics live only in a :class:`~repro.geonet.fleet.FleetState`:
the stepper keeps one slot array per lane, sorted by progress, and reads
and writes the fleet columns with fancy indexing.  A vectorised mask picks
out the few vehicles that reach an intersection or the end of the runout;
only those get per-vehicle Python work.  Networking layers subscribe via
``on_spawn`` / ``on_exit`` / ``on_step`` callbacks.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.geonet.fleet import FleetState
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


def _next_cross(lane: Lane, s: float) -> int:
    """Index into ``lane.cross_s`` of the first intersection strictly
    ahead of ``s``: an intersection at the current position (e.g. the
    entrance corner a vehicle spawns on) is not a turn opportunity."""
    return bisect.bisect_right(lane.cross_s, s + 1e-9)


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
        #: The store of every vehicle's kinematics; a channel-less one when
        #: the traffic runs without radios.
        self.fleet = fleet if fleet is not None else FleetState()
        #: lane index -> the lane's fleet slots, sorted by progress
        #: ascending (the last is the furthest along, nearest the exit).
        self._lane_slots: Dict[int, np.ndarray] = {
            lane.index: np.empty(0, dtype=np.intp) for lane in road.lanes
        }
        #: lane index -> ``cross_s`` closed by +inf, so indexing it with a
        #: vehicle's ``next_cross`` is always defined.
        self._cross: Dict[int, np.ndarray] = {
            lane.index: np.array(lane.cross_s + (math.inf,)) for lane in road.lanes
        }
        #: slot -> the handle of the vehicle holding it.
        self._vehicles: Dict[int, Vehicle] = {}
        #: Vehicle ids, numbered from 1 in order of entry.
        self._vehicle_ids = itertools.count(1)
        self.on_spawn: List[Callable[[Vehicle], None]] = []
        self.on_exit: List[Callable[[Vehicle], None]] = []
        self.on_step: List[Callable[[float], None]] = []
        self.rear_end_contacts = 0
        self.turns_total = 0
        self._process: Optional[PeriodicProcess] = None
        self._now = 0.0

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_vehicle(
        self,
        lane: Lane,
        s: float,
        speed: float,
        *,
        speed_factor: float = 1.0,
        forced_acceleration: Optional[float] = None,
    ) -> Vehicle:
        """Place a new vehicle at progress ``s`` of ``lane`` and return it.

        It joins the lane behind any vehicle at equal progress.
        """
        vehicle = self._new_vehicle(lane, s, speed, speed_factor, forced_acceleration)
        self._insert(lane, vehicle.slot, s)
        for callback in self.on_spawn:
            callback(vehicle)
        return vehicle

    def _new_vehicle(
        self,
        lane: Lane,
        s: float,
        speed: float,
        speed_factor: float,
        forced_acceleration: Optional[float] = None,
    ) -> Vehicle:
        """Claim a fleet slot for a vehicle (not yet in any lane array)."""
        if speed < 0:
            raise ValueError("speed must be non-negative")
        x, y = lane.point_at(s)
        slot = self.fleet.add(
            x=x,
            y=y,
            s=s,
            speed=speed,
            heading=lane.heading,
            length=self.params.vehicle_length,
            speed_factor=speed_factor,
            accel=math.nan if forced_acceleration is None else forced_acceleration,
            next_cross=_next_cross(lane, s),
        )
        vehicle = self._vehicles[slot] = Vehicle(
            self.fleet, slot, lane, next(self._vehicle_ids), self._now
        )
        return vehicle

    def _insert(self, lane: Lane, slot: int, s: float) -> None:
        """Insert ``slot`` into the lane array after every equal progress."""
        slots = self._lane_slots[lane.index]
        k = int(np.searchsorted(self.fleet.s[slots], s, side="right"))
        self._lane_slots[lane.index] = np.insert(slots, k, slot)

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
            new_slots = []
            for k in range(n + 1):
                s = k * spacing + stagger
                if self._rng is not None:
                    s += self._rng.uniform(-0.25, 0.25) * spacing
                vehicle = self._new_vehicle(
                    lane,
                    min(max(s, 0.0), lane.length),
                    speed,
                    self._draw_speed_factor(),
                )
                new_slots.append(vehicle.slot)
                created.append(vehicle)
            slots = np.concatenate(
                (self._lane_slots[lane.index], np.array(new_slots, dtype=np.intp))
            )
            order = np.argsort(self.fleet.s[slots], kind="stable")
            self._lane_slots[lane.index] = slots[order]
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
        fleet = self.fleet
        for lane in self.road.lanes:
            if direction is not None and lane.direction is not direction:
                continue
            slots = self._lane_slots[lane.index]
            if on_road_only:
                slots = slots[fleet.s[slots] <= lane.length]
            for slot in slots.tolist():
                yield self._vehicles[slot]

    def count_on_road(self, direction: Optional[Direction] = None) -> int:
        """Number of vehicles on the road proper (runout excluded)."""
        return sum(1 for _ in self.vehicles(direction, on_road_only=True))

    def lane_vehicles(self, lane: Lane) -> List[Vehicle]:
        """The (sorted) vehicles currently in ``lane``."""
        return [self._vehicles[slot] for slot in self._lane_slots[lane.index].tolist()]

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
        fleet = self.fleet
        for vehicle, target, s_new in transfers:
            self._leave_lane(vehicle)
            s = min(s_new, target.length + self.runout)
            slot = vehicle.slot
            vehicle.lane = target
            vehicle.turns_taken += 1
            self.turns_total += 1
            fleet.s[slot] = s
            fleet.next_cross[slot] = _next_cross(target, s)
            fleet.x[slot], fleet.y[slot] = target.point_at(s)
            fleet.heading[slot] = target.heading
            self._insert(target, slot, s)
        fleet.moved()
        for vehicle in exits:
            self._leave_lane(vehicle)
            vehicle.active = False
            for callback in self.on_exit:
                callback(vehicle)
            del self._vehicles[vehicle.slot]
            fleet.remove(vehicle.slot)
        self._spawn(now)
        for callback in self.on_step:
            callback(now)

    def _leave_lane(self, vehicle: Vehicle) -> None:
        slots = self._lane_slots[vehicle.lane.index]
        self._lane_slots[vehicle.lane.index] = slots[slots != vehicle.slot]

    def _step_lane(
        self,
        lane: Lane,
        now: float,
        transfers: List[Tuple[Vehicle, Lane, float]],
        exits: List[Vehicle],
    ) -> None:
        slots = self._lane_slots[lane.index]
        n = slots.size
        if n == 0:
            return
        fleet = self.fleet
        s = fleet.s[slots]
        speeds = fleet.speed[slots]
        lengths = fleet.length[slots]
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
        desired = self.params.desired_velocity * fleet.speed_factor[slots]
        accel = idm_acceleration_array(
            speeds, gaps, lead_speeds, self.params, desired_velocities=desired
        )
        forced = fleet.accel[slots]
        accel = np.where(np.isnan(forced), accel, forced)
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
        fleet.s[slots] = new_s
        fleet.speed[slots] = new_speeds
        axis = fleet.x if lane.axis == HORIZONTAL else fleet.y
        axis[slots] = new_s if lane.sign > 0 else lane.length - new_s
        # Only vehicles reaching an intersection or the end of the runout
        # need Python work; they are handled in lane order, so turn draws
        # come in the same order as a per-vehicle loop would make them.
        crossing = self._cross[lane.index][fleet.next_cross[slots]] <= new_s
        todo = np.flatnonzero(crossing | (new_s > lane.length + self.runout))
        for i, slot, s_i in zip(
            todo.tolist(), slots[todo].tolist(), new_s[todo].tolist()
        ):
            vehicle = self._vehicles[slot]
            if not crossing[i]:
                exits.append(vehicle)
                continue
            k = fleet.next_cross.item(slot)
            turn = self._draw_turn()
            if turn is None:
                fleet.next_cross[slot] = k + 1
            else:
                target, s_cross = self.road.turn_target(lane, k, turn)
                transfers.append((vehicle, target, s_cross + (s_i - lane.cross_s[k])))

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

    def _spawn(self, now: float) -> None:
        if self.spawner is None:
            return
        for lane in self.road.lanes:
            slots = self._lane_slots[lane.index]
            nearest = self.fleet.s.item(slots[0]) if slots.size else math.inf
            if self.spawner.may_spawn(lane, nearest):
                vehicle = self._new_vehicle(
                    lane, 0.0, self.spawner.entry_speed, self._draw_speed_factor()
                )
                self._lane_slots[lane.index] = np.insert(slots, 0, vehicle.slot)
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
