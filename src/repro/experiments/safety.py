"""Road-safety impact study (paper §IV-B, Fig 11b / Fig 13).

Two vehicles approach a blind curve from opposite directions.  The terrain
blocks radio (and sight) between the two approaches, so a roadside unit at
the outer edge of the curve relays CBF messages.  V1 detects a hazard in its
lane, brakes hard, swerves into the opposite lane and broadcasts a lane-
change warning:

* attack-free — the RSU relays the warning; V2 slows to a crawl and the
  vehicles never meet in the same lane;
* attacked — a blocker beside the RSU replays the warning with transmission
  power tuned so *only the RSU* hears it (the Spot-2 variant, RHL
  unmodified).  The RSU treats it as another forwarder's duplicate and
  cancels its relay; V2 arrives unwarned, both drivers only see each other
  at sight distance around the bend, and the emergency braking (after a
  human reaction delay) is too late.

The curve runs as a :class:`~repro.experiments.world.World` scenario (see
:func:`curve_config`): V1 and V2 are fleet vehicles with forced
accelerations, the RSU is a roadside node, and the attacker is the world's
own intra-area blocker, so checkpoints, the invariant checker, the ledger
and faults apply as to any other run.  The module records the speed
profiles the paper plots in Fig 13 and whether a collision occurred.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.config import (
    AttackConfig,
    AttackKind,
    ExperimentConfig,
    RoadConfig,
    WorkloadConfig,
    WorkloadKind,
)
from repro.experiments.world import World
from repro.geo.areas import RectangularArea
from repro.geo.position import Position
from repro.geonet.config import GeoNetConfig
from repro.geonet.node import GeoNode
from repro.radio.technology import DSRC

APEX_X = 600.0
HAZARD_ZONE = (500.0, 545.0)
DETECT_X = 450.0
SIGHT_DISTANCE = 15.0
REACTION_DELAY = 0.8
WARNING_PAYLOAD = "lane-change-warning"

V1_START_X = 300.0
V1_SPEED = 27.0
V2_START_X = 700.0
V2_SPEED = 14.0

APPROACH_DECEL = -2.0
WARNED_DECEL = -4.0
HAZARD_DECEL = -4.0
EMERGENCY_DECEL = -8.0
CRAWL_SPEED = 2.0
PASS_SPEED = 8.0


@dataclass
class SafetyRun:
    """Speed profiles and events of one curve-scenario run."""

    attacked: bool
    times: List[float] = field(default_factory=list)
    v1_speeds: List[float] = field(default_factory=list)
    v2_speeds: List[float] = field(default_factory=list)
    v1_positions: List[float] = field(default_factory=list)
    v2_positions: List[float] = field(default_factory=list)
    warning_sent_at: Optional[float] = None
    v2_warned_at: Optional[float] = None
    collision_at: Optional[float] = None
    min_gap: float = float("inf")

    @property
    def collided(self) -> bool:
        return self.collision_at is not None

    def format(self) -> str:
        warned = (
            f"V2 warned at t={self.v2_warned_at:.2f}s"
            if self.v2_warned_at is not None
            else "V2 never warned"
        )
        outcome = (
            f"COLLISION at t={self.collision_at:.2f}s"
            if self.collided
            else f"no collision (min gap {self.min_gap:.1f} m)"
        )
        return f"{'attacked' if self.attacked else 'attack-free'}: {warned}; {outcome}"


def curve_config(*, seed: int = 1, duration: float = 40.0) -> ExperimentConfig:
    """The blind-curve world: a 1 200 m two-way road with one lane each way.

    The road starts empty (the scenario adds V1 and V2 itself) and the
    attack is the targeted intra-area blocker (Spot 2): RHL unmodified,
    replaying at 5 m from a mast one metre beside the RSU at the apex.
    """
    return ExperimentConfig(
        road=RoadConfig(
            length=1200.0,
            lanes_per_direction=1,
            directions=2,
            prepopulate=False,
            spawn=False,
        ),
        geonet=GeoNetConfig(dist_max=DSRC.max_range_m),
        workload=WorkloadConfig(kind=WorkloadKind.INTRA_AREA),
        attack=AttackConfig(
            kind=AttackKind.INTRA_AREA,
            x=APEX_X,
            y_offset=31.0,
            attack_range=300.0,
            rewrite_rhl=False,  # the Spot-2 targeted variant
            replay_range=5.0,  # reaches only the RSU one metre away
        ),
        duration=duration,
        seed=seed,
    )


class _CurveScenario:
    """Installs terrain, V1, V2 and the RSU in a world, and scripts V1/V2."""

    def __init__(self, run: SafetyRun):
        self.run = run
        self.area = RectangularArea(0.0, 1200.0, 0.0, 40.0)
        # scripted state
        self._v1_detected = False
        self._v1_in_opposite_lane = False
        self._v1_cleared = False
        self._v2_warned = False
        self._v2_emergency_at: Optional[float] = None
        self._v1_emergency_at: Optional[float] = None

    def build(self, world: World) -> None:
        # The terrain blocks links between the two approaches; anything
        # mounted high (RSU at y=30, attacker mast at y=31) is exempt, and
        # vehicles close to one another around the bend can still hear
        # (and see) each other.
        world.channel.add_obstruction(self._terrain_blocks)
        east, west = world.road.eastbound_lanes[0], world.road.westbound_lanes[0]
        self.v1 = world.traffic.add_vehicle(
            east, east.progress(V1_START_X), V1_SPEED,
            forced_acceleration=APPROACH_DECEL,
        )
        self.v2 = world.traffic.add_vehicle(
            west, west.progress(V2_START_X), V2_SPEED,
            forced_acceleration=APPROACH_DECEL,
        )
        self._vehicle_length = world.traffic.params.vehicle_length
        self.n1 = world.nodes[self.v1.vehicle_id]
        world.nodes[self.v2.vehicle_id].router.on_deliver.append(self._v2_deliver)
        world.add_roadside_node("rsu", Position(APEX_X, 30.0))
        world.traffic.on_step.append(self._control)

    # ------------------------------------------------------------------
    @staticmethod
    def _terrain_blocks(a: Position, b: Position) -> bool:
        if a.y >= 15.0 or b.y >= 15.0:
            return False  # elevated roadside equipment has line of sight
        opposite_sides = (a.x - APEX_X) * (b.x - APEX_X) < 0
        return opposite_sides and abs(a.x - b.x) > 40.0

    # ------------------------------------------------------------------
    def _v2_deliver(self, node: GeoNode, packet) -> None:
        if packet.body.payload == WARNING_PAYLOAD and not self._v2_warned:
            self._v2_warned = True
            self.run.v2_warned_at = node.sim.now

    # ------------------------------------------------------------------
    def _control(self, now: float) -> None:
        self._control_v1(now)
        self._control_v2(now)
        gap = abs(self.v1.x - self.v2.x)
        if self._v1_in_opposite_lane:
            # Only the window where both vehicles share a lane is
            # collision-relevant; passing in separate lanes is normal.
            self.run.min_gap = min(self.run.min_gap, gap)
        if (
            self._v1_in_opposite_lane
            and not self.run.collided
            and gap <= self._vehicle_length
        ):
            self.run.collision_at = now
            for vehicle in (self.v1, self.v2):
                vehicle.speed = 0.0
                vehicle.forced_acceleration = 0.0
        self.run.times.append(now)
        self.run.v1_speeds.append(self.v1.speed)
        self.run.v2_speeds.append(self.v2.speed)
        self.run.v1_positions.append(self.v1.x)
        self.run.v2_positions.append(self.v2.x)

    def _control_v1(self, now: float) -> None:
        v1 = self.v1
        if self.run.collided:
            return
        if not self._v1_detected and v1.x >= DETECT_X:
            self._v1_detected = True
            self.run.warning_sent_at = now
            self.n1.originate(self.area, WARNING_PAYLOAD)
        if self._v1_emergency_at is not None:
            if now >= self._v1_emergency_at:
                v1.forced_acceleration = EMERGENCY_DECEL
            return
        if self._sees_oncoming() and self._v1_in_opposite_lane:
            self._v1_emergency_at = now + REACTION_DELAY
            return
        if not self._v1_detected:
            v1.forced_acceleration = APPROACH_DECEL
        elif v1.x < HAZARD_ZONE[0]:
            v1.forced_acceleration = (
                HAZARD_DECEL if v1.speed > PASS_SPEED else 0.0
            )
        elif v1.x < HAZARD_ZONE[1]:
            self._v1_in_opposite_lane = True
            v1.forced_acceleration = 0.0
        else:
            if self._v1_in_opposite_lane:
                self._v1_in_opposite_lane = False
                self._v1_cleared = True
            # Back in its own lane: return to a constant cruise.
            v1.forced_acceleration = 2.0 if v1.speed < 15.0 else 0.0

    def _control_v2(self, now: float) -> None:
        v2 = self.v2
        if self.run.collided:
            return
        if self._v2_emergency_at is not None:
            if now >= self._v2_emergency_at:
                v2.forced_acceleration = EMERGENCY_DECEL
            return
        if self._sees_oncoming() and self._v1_in_opposite_lane:
            self._v2_emergency_at = now + REACTION_DELAY
            return
        if self._v2_warned and not self._v1_cleared:
            v2.forced_acceleration = (
                WARNED_DECEL if v2.speed > CRAWL_SPEED else 0.0
            )
        elif self._v2_warned and self._v1_cleared:
            v2.forced_acceleration = 2.0 if v2.speed < V2_SPEED else 0.0
        else:
            v2.forced_acceleration = (
                APPROACH_DECEL if v2.speed > PASS_SPEED else 0.0
            )

    def _sees_oncoming(self) -> bool:
        return abs(self.v1.x - self.v2.x) <= SIGHT_DISTANCE


def run_safety_case(*, attacked: bool, seed: int = 1, duration: float = 40.0) -> SafetyRun:
    """Run the curve scenario once and return its speed profiles/events."""
    run = SafetyRun(attacked=attacked)
    config = curve_config(seed=seed, duration=duration)
    scenario = _CurveScenario(run)
    World(config, attacked=attacked, build_workload=scenario.build).run()
    return run


@dataclass
class SafetyComparison:
    """Fig 13: attack-free vs attacked curve scenario."""

    af: SafetyRun
    atk: SafetyRun

    def format(self) -> str:
        return (
            "Fig13: road-safety curve scenario\n"
            f"  {self.af.format()}\n"
            f"  {self.atk.format()}"
        )


def compare_safety(*, seed: int = 1, duration: float = 40.0) -> SafetyComparison:
    """Run the paired attack-free / attacked curve scenarios."""
    return SafetyComparison(
        af=run_safety_case(attacked=False, seed=seed, duration=duration),
        atk=run_safety_case(attacked=True, seed=seed, duration=duration),
    )
