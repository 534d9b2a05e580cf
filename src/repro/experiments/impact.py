"""Traffic-efficiency impact study (paper §IV-B, Fig 11a / Fig 12).

A hazard blocks both eastbound lanes 3 600 m into the segment at t=5 s.
The stopped vehicle at the event site broadcasts a warning once per second;
an entrance gate node (standing for the drivers about to enter) stops
admission when it receives the warning:

* **case 1 (GF)** — the road starts *empty* and fills from the entrance,
  so the warning can only hop westward once entering traffic bridges the
  hazard-to-entrance gap (the paper's attack-free notification lands after
  ~60 s "due to the low efficiency of the GF algorithm"; in our substrate
  the delay is the network-fill time, ~110-190 s).  The warning is
  GeoBroadcast toward a destination area at the road entrance and the
  attacker runs the *inter-area interception attack*.  Substitution note:
  the paper runs this case on a two-direction road.  Strictly standard GF
  (rank by distance to destination over all live-TTL LocT entries, no
  reachability check — that absence is vulnerability #2) systematically
  prefers opposing-direction vehicles that have just receded out of range,
  so westward relaying over mixed traffic never delivers at all and the
  paper's attack-free/attacked contrast would vanish.  A single-direction
  road preserves the demonstrated mechanism: GF delivers (late) when
  attack-free and never under the interception attack.
* **case 2 (CBF)** — the road starts populated; the warning floods the whole
  segment and is received "immediately" attack-free.  The gate sits inside
  the area and the attacker runs the *intra-area blockage attack* with the
  500 m optimum range.

The reported series is the number of eastbound vehicles on the road over
time: attack-free runs plateau once the warning gets through; attacked runs
keep growing — the traffic jam the paper shows in Fig 12.
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
from repro.geo.position import Position
from repro.geonet.node import GeoNode
from repro.radio.technology import DSRC
from repro.sim.process import every
from repro.traffic.hazard import HazardEvent
from repro.traffic.road import Direction

HAZARD_X = 3600.0
HAZARD_TIME = 5.0
WARNING_PAYLOAD = "hazard-at-3600m"


@dataclass
class ImpactRun:
    """One run's vehicle-count series and notification outcome."""

    attacked: bool
    times: List[float] = field(default_factory=list)
    east_counts: List[int] = field(default_factory=list)
    block_time: Optional[float] = None
    warnings_sent: int = 0

    @property
    def final_count(self) -> int:
        return self.east_counts[-1] if self.east_counts else 0


@dataclass
class ImpactComparison:
    """Seed-paired A/B series for one case (a Fig 12 panel)."""

    case: str
    af: ImpactRun
    atk: ImpactRun

    def format(self) -> str:
        def block(run: ImpactRun) -> str:
            return (
                f"entrance blocked at t={run.block_time:.1f}s"
                if run.block_time is not None
                else "entrance never blocked"
            )

        return (
            f"Fig12 case {self.case}: eastbound vehicles on road\n"
            f"  attack-free: final={self.af.final_count:3d}  {block(self.af)}\n"
            f"  attacked:    final={self.atk.final_count:3d}  {block(self.atk)}\n"
            f"  jam delta:   +{self.atk.final_count - self.af.final_count} vehicles"
        )


def impact_config(
    case: str,
    *,
    duration: float = 200.0,
    seed: int = 1,
    spawn_gap: Optional[float] = None,
    attack_range: Optional[float] = None,
) -> ExperimentConfig:
    """Scenario config for case '1' (GF / inter-area) or '2' (CBF / intra).

    ``spawn_gap`` defaults to 55 m (an entry rate of ~1 veh/s/direction,
    matching the vehicle counts the paper's Fig 12 implies).
    """
    if spawn_gap is None:
        spawn_gap = 55.0
    if case == "1":
        base = ExperimentConfig.inter_area_default(duration=duration, seed=seed)
        attack = AttackConfig(
            kind=AttackKind.INTER_AREA,
            attack_range=DSRC.nlos_median_m if attack_range is None else attack_range,
        )
        workload = WorkloadConfig(kind=WorkloadKind.INTER_AREA)
    elif case == "2":
        base = ExperimentConfig.intra_area_default(duration=duration, seed=seed)
        attack = AttackConfig(
            kind=AttackKind.INTRA_AREA,
            attack_range=500.0 if attack_range is None else attack_range,
        )
        workload = WorkloadConfig(kind=WorkloadKind.INTRA_AREA)
    else:
        raise ValueError(f"case must be '1' or '2', got {case!r}")
    return base.with_(
        road=RoadConfig(
            # Case 1 runs one-way and starts empty (see module docstring);
            # case 2 keeps the two-direction road and starts populated, as
            # its immediate CBF reception implies.
            directions=1 if case == "1" else 2,
            inter_vehicle_space=spawn_gap,
            prepopulate=(case == "2"),
            spawn=True,
        ),
        attack=attack,
        workload=workload,
    )


class _ImpactScenario:
    """Installs hazard, warning source, entrance gate and sampler in a world."""

    def __init__(self, case: str, run: ImpactRun):
        self.case = case
        self.run = run
        self.gate: Optional[GeoNode] = None
        self.reporter: Optional[GeoNode] = None
        self.world: Optional[World] = None

    def build(self, world: World) -> None:
        self.world = world
        world.traffic.add_hazard(
            HazardEvent(x=HAZARD_X, direction=Direction.EAST, start_time=HAZARD_TIME)
        )
        # The stopped vehicle at the event site reports the hazard.
        east_lane_y = world.road.eastbound_lanes[0].y
        self.reporter = world.add_roadside_node(
            "reporter", Position(HAZARD_X - 5.0, east_lane_y)
        )
        if self.case == "1":
            # The west destination node doubles as the entrance gate: it
            # stands for the drivers waiting to enter at x=0.
            self.gate = next(
                node for node in world.dest_nodes if node.name == "dest-west"
            )
        else:
            self.gate = world.add_roadside_node(
                "gate", Position(2.0, world.road.total_width / 2)
            )
        self.gate.router.on_deliver.append(self._on_gate_delivery)
        every(
            world.sim,
            1.0,
            self._send_warning_tick,
            start_delay=HAZARD_TIME,
        )
        every(world.sim, 1.0, self._sample_tick, start_delay=0.0)

    # ------------------------------------------------------------------
    def _send_warning_tick(self) -> None:
        self._send_warning(self.world)

    def _sample_tick(self) -> None:
        self._sample(self.world)

    # ------------------------------------------------------------------
    def _on_gate_delivery(self, node: GeoNode, packet) -> None:
        if packet.body.payload != WARNING_PAYLOAD:
            return
        if self.run.block_time is None:
            self.run.block_time = node.sim.now
        # Drivers at the entrance refuse to enter the blocked direction.
        if self.world is not None and self.world.spawner is not None:
            self.world.spawner.block(Direction.EAST)

    # ------------------------------------------------------------------
    def _send_warning(self, world: World) -> None:
        """The stopped vehicle at the event site warns upstream traffic."""
        if self.case == "1":
            area = world.dest_areas[Direction.WEST]
        else:
            area = world.flood_area
        self.reporter.originate(area, WARNING_PAYLOAD)
        self.run.warnings_sent += 1

    def _sample(self, world: World) -> None:
        self.run.times.append(world.sim.now)
        self.run.east_counts.append(world.traffic.count_on_road(Direction.EAST))


def run_impact_case(
    case: str,
    *,
    attacked: bool,
    duration: float = 200.0,
    seed: int = 1,
    spawn_gap: Optional[float] = None,
    attack_range: Optional[float] = None,
) -> ImpactRun:
    """Run one impact scenario and return its vehicle-count series."""
    config = impact_config(
        case,
        duration=duration,
        seed=seed,
        spawn_gap=spawn_gap,
        attack_range=attack_range,
    )
    run = ImpactRun(attacked=attacked)
    scenario = _ImpactScenario(case, run)
    world = World(config, attacked=attacked, seed=seed, build_workload=scenario.build)
    world.run()
    return run


def compare_impact(
    case: str,
    *,
    duration: float = 200.0,
    seed: int = 1,
    spawn_gap: Optional[float] = None,
    attack_range: Optional[float] = None,
) -> ImpactComparison:
    """Seed-paired A/B comparison for one Fig 12 panel."""
    af = run_impact_case(
        case,
        attacked=False,
        duration=duration,
        seed=seed,
        spawn_gap=spawn_gap,
        attack_range=attack_range,
    )
    atk = run_impact_case(
        case,
        attacked=True,
        duration=duration,
        seed=seed,
        spawn_gap=spawn_gap,
        attack_range=attack_range,
    )
    return ImpactComparison(case=case, af=af, atk=atk)
