"""Experiment configuration.

An :class:`ExperimentConfig` fully determines one simulated scenario (modulo
the seed): road and traffic, radio technology, GeoNetworking parameters,
workload, and the attacker.  The factory methods build the paper's default
settings: a single-direction two-lane 4 000 m road, 30 m inter-vehicle
space, DSRC NLoS-median vehicle ranges, 20 s LocTE TTL, a packet per second,
and an attacker at the middle of the road.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.geonet.config import GeoNetConfig
from repro.radio.technology import CV2X, DSRC, RadioTechnology, RangeClass


class AttackKind(enum.Enum):
    """Which proof-of-concept attack the B-run deploys."""

    NONE = "none"
    INTER_AREA = "inter-area"
    INTRA_AREA = "intra-area"


class WorkloadKind(enum.Enum):
    """What traffic the application layer generates."""

    #: One vulnerable GF packet per interval toward a road-end destination.
    INTER_AREA = "inter-area"
    #: One CBF flood per interval over the whole road segment.
    INTRA_AREA = "intra-area"


@dataclass(frozen=True)
class RoadConfig:
    """Road geometry and traffic density."""

    length: float = 4000.0
    lanes_per_direction: int = 2
    lane_width: float = 5.0
    directions: int = 1
    inter_vehicle_space: float = 30.0
    prepopulate: bool = True
    spawn: bool = True
    entry_speed: float = 30.0

    def __post_init__(self):
        if self.length <= 0:
            raise ConfigError(f"road.length must be positive, got {self.length!r}")
        if self.lanes_per_direction < 1:
            raise ConfigError(
                "road.lanes_per_direction must be >= 1, got "
                f"{self.lanes_per_direction!r}"
            )
        if self.lane_width <= 0:
            raise ConfigError(
                f"road.lane_width must be positive, got {self.lane_width!r}"
            )
        if self.directions not in (1, 2):
            raise ConfigError(
                f"road.directions must be 1 or 2, got {self.directions!r}"
            )
        if self.inter_vehicle_space <= 0:
            raise ConfigError(
                "road.inter_vehicle_space must be positive, got "
                f"{self.inter_vehicle_space!r}"
            )
        if self.entry_speed <= 0:
            raise ConfigError(
                f"road.entry_speed must be positive, got {self.entry_speed!r}"
            )


#: Valid ``AttackConfig.variant`` values.  ``single`` is the paper's static
#: mid-road mast; the others are the PR-9 threat-model extensions (all
#: inter-area): ``coordinated`` multi-mast with greedy placement, a
#: ``mobile`` attacker riding the traffic flow, and an ``adaptive``
#: attacker that throttles its replay rate under detection thresholds.
ATTACK_VARIANTS = ("single", "coordinated", "mobile", "adaptive")


@dataclass(frozen=True)
class AttackConfig:
    """Where the attacker sits and how it behaves."""

    kind: AttackKind = AttackKind.NONE
    attack_range: float = 486.0
    #: Attacker x; None means the middle of the road (the paper's Fig 6).
    x: Optional[float] = None
    #: Lateral offset from the road edge (roadside deployment).
    y_offset: float = -10.0
    reaction_delay: float = 0.0005
    #: Intra-area mode: rewrite RHL to 1 (Spot 1) vs targeted replay (Spot 2).
    rewrite_rhl: bool = True
    replay_range: Optional[float] = None
    #: Attacker variant (see :data:`ATTACK_VARIANTS`).
    variant: str = "single"
    #: ``coordinated``: number of masts, placed by greedy coverage.
    n_masts: int = 3
    #: ``mobile``: ground speed (m/s) along the flow, and position-update
    #: cadence (seconds).
    mobile_speed: float = 30.0
    mobile_update_interval: float = 0.5
    #: ``adaptive``: replay budget per alert window, the window it mirrors,
    #: and the per-source replay cooldown.
    adaptive_max_replays_per_window: float = 2.0
    adaptive_window: float = 5.0
    adaptive_cooldown: float = 6.0

    def __post_init__(self):
        if self.attack_range <= 0:
            raise ConfigError(
                f"attack.attack_range must be positive, got {self.attack_range!r}"
            )
        if self.reaction_delay < 0:
            raise ConfigError(
                "attack.reaction_delay must be non-negative, got "
                f"{self.reaction_delay!r}"
            )
        if self.replay_range is not None and self.replay_range <= 0:
            raise ConfigError(
                f"attack.replay_range must be positive, got {self.replay_range!r}"
            )
        if self.variant not in ATTACK_VARIANTS:
            raise ConfigError(
                f"attack.variant must be one of {ATTACK_VARIANTS}, got "
                f"{self.variant!r}"
            )
        if self.variant != "single" and self.kind is AttackKind.INTRA_AREA:
            raise ConfigError(
                "attack.variant extensions are inter-area only; "
                f"got variant={self.variant!r} with kind=intra-area"
            )
        if self.n_masts < 1:
            raise ConfigError(
                f"attack.n_masts must be >= 1, got {self.n_masts!r}"
            )
        if self.mobile_speed <= 0:
            raise ConfigError(
                f"attack.mobile_speed must be positive, got {self.mobile_speed!r}"
            )
        if self.mobile_update_interval <= 0:
            raise ConfigError(
                "attack.mobile_update_interval must be positive, got "
                f"{self.mobile_update_interval!r}"
            )
        if self.adaptive_max_replays_per_window <= 0:
            raise ConfigError(
                "attack.adaptive_max_replays_per_window must be positive, "
                f"got {self.adaptive_max_replays_per_window!r}"
            )
        if self.adaptive_window <= 0:
            raise ConfigError(
                f"attack.adaptive_window must be positive, got "
                f"{self.adaptive_window!r}"
            )
        if self.adaptive_cooldown < 0:
            raise ConfigError(
                "attack.adaptive_cooldown must be non-negative, got "
                f"{self.adaptive_cooldown!r}"
            )


@dataclass(frozen=True)
class WorkloadConfig:
    """Application packet generation."""

    kind: WorkloadKind = WorkloadKind.INTER_AREA
    packet_interval: float = 1.0
    #: Inter-area destinations sit this far beyond each road end.
    dest_offset: float = 20.0
    dest_radius: float = 15.0
    payload: str = "hazard-warning"
    #: Optional restriction of packet sources to an x-interval (used by the
    #: §IV-A source-location study to sample the tiny fully covered area).
    source_xmin: Optional[float] = None
    source_xmax: Optional[float] = None

    def __post_init__(self):
        if self.packet_interval <= 0:
            raise ConfigError(
                "workload.packet_interval must be positive, got "
                f"{self.packet_interval!r}"
            )
        if self.dest_offset < 0:
            raise ConfigError(
                f"workload.dest_offset must be non-negative, got {self.dest_offset!r}"
            )
        if self.dest_radius <= 0:
            raise ConfigError(
                f"workload.dest_radius must be positive, got {self.dest_radius!r}"
            )
        if (
            self.source_xmin is not None
            and self.source_xmax is not None
            and self.source_xmax < self.source_xmin
        ):
            raise ConfigError(
                "workload.source_xmax must be >= source_xmin, got "
                f"xmin={self.source_xmin!r} xmax={self.source_xmax!r}"
            )


@dataclass(frozen=True)
class UrbanConfig:
    """Manhattan-grid geometry, urban traffic, and shadowing knobs.

    Only consulted when ``ExperimentConfig.scenario == "urban"``.  The
    defaults give a 4×4-street grid of 250 m blocks (a 750 m × 750 m
    downtown patch), ~50 km/h urban speeds, and corner shadowing with a
    15 m clearance around intersections (NLoS links between vehicles on
    different streets are blocked unless both sit near a shared corner).
    """

    streets_x: int = 4
    streets_y: int = 4
    block_size: float = 250.0
    lane_width: float = 4.0
    #: Half-width of the LoS corridor around each street centerline.  Covers
    #: both directed lanes (at ±lane_width/2) plus curb margin.
    los_half_width: float = 6.0
    #: Radius around an intersection within which diffraction carries a
    #: signal "around the corner" to the crossing street.
    corner_clearance: float = 15.0
    turn_probability: float = 0.25
    desired_speed: float = 14.0
    entry_speed: float = 10.0
    spawn_gap: float = 40.0
    inter_vehicle_space: float = 50.0
    prepopulate: bool = True
    spawn: bool = True

    def __post_init__(self):
        if self.streets_x < 2 or self.streets_y < 2:
            raise ConfigError(
                "urban grid needs >= 2 streets per axis, got "
                f"streets_x={self.streets_x!r} streets_y={self.streets_y!r}"
            )
        if self.block_size <= 0:
            raise ConfigError(
                f"urban.block_size must be positive, got {self.block_size!r}"
            )
        if self.lane_width <= 0:
            raise ConfigError(
                f"urban.lane_width must be positive, got {self.lane_width!r}"
            )
        if self.los_half_width < self.lane_width / 2:
            raise ConfigError(
                "urban.los_half_width must cover the lane offset "
                f"(>= lane_width/2), got {self.los_half_width!r}"
            )
        if self.corner_clearance < 0:
            raise ConfigError(
                "urban.corner_clearance must be non-negative, got "
                f"{self.corner_clearance!r}"
            )
        if not 0.0 <= self.turn_probability <= 1.0:
            raise ConfigError(
                "urban.turn_probability must be in [0, 1], got "
                f"{self.turn_probability!r}"
            )
        for name in ("desired_speed", "entry_speed", "spawn_gap",
                     "inter_vehicle_space"):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"urban.{name} must be positive, got {getattr(self, name)!r}"
                )


@dataclass(frozen=True)
class DetectionConfig:
    """Online misbehavior-detection pipeline knobs.

    Disabled by default: a default run deploys no detectors, schedules no
    window timer, and stays bit-identical to the seed goldens.  When
    enabled, a :class:`~repro.core.online_detection.DetectionPipeline`
    monitors every ``monitor_stride``-th vehicle and scores tumbling
    ``window``-second windows against ``alert_rate_threshold`` (alerts per
    monitored node per window; see ``docs/detection.md`` for calibration).
    """

    enabled: bool = False
    #: Tumbling aggregation window (seconds).
    window: float = 5.0
    #: Alerts per monitored node per window that flag a window.
    alert_rate_threshold: float = 5.0
    #: Monitor every Nth spawned vehicle (1 = the whole fleet).
    monitor_stride: int = 1
    #: Per-detector knobs; None derives plausible_range from the
    #: technology's vehicle range.
    plausible_range: Optional[float] = None
    dedup_window: float = 2.0
    rhl_drop_threshold: int = 3
    #: Bounded-state knobs forwarded to every MisbehaviorDetector.
    max_tracked: int = 4096
    prune_interval: float = 5.0

    def __post_init__(self):
        if self.window <= 0:
            raise ConfigError(
                f"detection.window must be positive, got {self.window!r}"
            )
        if self.alert_rate_threshold <= 0:
            raise ConfigError(
                "detection.alert_rate_threshold must be positive, got "
                f"{self.alert_rate_threshold!r}"
            )
        if self.monitor_stride < 1:
            raise ConfigError(
                "detection.monitor_stride must be >= 1, got "
                f"{self.monitor_stride!r}"
            )
        if self.plausible_range is not None and self.plausible_range <= 0:
            raise ConfigError(
                "detection.plausible_range must be positive (or None), got "
                f"{self.plausible_range!r}"
            )
        if self.dedup_window <= 0:
            raise ConfigError(
                f"detection.dedup_window must be positive, got "
                f"{self.dedup_window!r}"
            )
        if self.max_tracked < 1:
            raise ConfigError(
                f"detection.max_tracked must be >= 1, got {self.max_tracked!r}"
            )
        if self.prune_interval <= 0:
            raise ConfigError(
                "detection.prune_interval must be positive, got "
                f"{self.prune_interval!r}"
            )


#: Valid ``ExperimentConfig.scenario`` values.
SCENARIOS = ("highway", "urban")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified scenario."""

    technology: RadioTechnology = DSRC
    #: "highway" (the paper's 4 000 m straight road, the default) or
    #: "urban" (Manhattan grid + corner shadowing; see ``urban``).
    scenario: str = "highway"
    road: RoadConfig = field(default_factory=RoadConfig)
    urban: UrbanConfig = field(default_factory=UrbanConfig)
    geonet: GeoNetConfig = field(default_factory=GeoNetConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    #: Online misbehavior detection (off by default — bit-identity).
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    duration: float = 200.0
    bin_width: float = 5.0
    #: Mobility step, which is also the fleet's beacon tick.
    mobility_dt: float = 0.1
    #: Deterministic fault injection (link loss, churn, GPS error, beacon
    #: timing); ``FaultPlan.lossy(x)`` is the i.i.d. frame-loss model.  The
    #: default zero plan installs nothing and changes nothing —
    #: golden-verified bit-identity with a plan-less run.
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Cadence (seconds) of the runtime invariant checker; None (default)
    #: disables it.  Enabling occupies event-queue slots, so it is outside
    #: the bit-identity contract.
    invariant_check_interval: Optional[float] = None
    seed: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}"
            )
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration!r}")
        if self.bin_width <= 0:
            raise ConfigError(f"bin_width must be positive, got {self.bin_width!r}")
        if self.mobility_dt <= 0:
            raise ConfigError(
                f"mobility_dt must be positive, got {self.mobility_dt!r}"
            )
        if (
            self.invariant_check_interval is not None
            and self.invariant_check_interval <= 0
        ):
            raise ConfigError(
                "invariant_check_interval must be positive (or None), got "
                f"{self.invariant_check_interval!r}"
            )

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    @property
    def vehicle_range(self) -> float:
        """Vehicle-to-vehicle range: the technology's NLoS-median (paper §IV)."""
        return self.technology.vehicle_range_m

    @property
    def attacker_x(self) -> float:
        """Attacker position along the road (middle by default)."""
        return self.road.length / 2 if self.attack.x is None else self.attack.x

    @property
    def n_bins(self) -> int:
        """Number of reporting time bins."""
        return int(math.ceil(self.duration / self.bin_width))

    def attack_range_for(self, range_class: RangeClass) -> float:
        """The attack range for a Table II range class of this technology."""
        return self.technology.range_for(range_class)

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    @staticmethod
    def inter_area_default(
        *,
        technology: RadioTechnology = DSRC,
        attack_range: Optional[float] = None,
        duration: float = 200.0,
        seed: int = 1,
        **overrides,
    ) -> "ExperimentConfig":
        """The paper's default inter-area effectiveness setting (§IV-A).

        The GF hop budget is sized so a packet can traverse the whole road
        (the paper's RHL=10 example is for intra-area floods).
        """
        hops_needed = math.ceil(4100.0 / technology.vehicle_range_m) + 6
        geonet = GeoNetConfig(
            dist_max=technology.max_range_m,
            plausibility_threshold=technology.vehicle_range_m,
            default_rhl=max(10, hops_needed),
        )
        config = ExperimentConfig(
            technology=technology,
            geonet=geonet,
            workload=WorkloadConfig(kind=WorkloadKind.INTER_AREA),
            attack=AttackConfig(
                kind=AttackKind.INTER_AREA,
                attack_range=(
                    technology.nlos_worst_m if attack_range is None else attack_range
                ),
            ),
            duration=duration,
            seed=seed,
        )
        return replace(config, **overrides) if overrides else config

    @staticmethod
    def intra_area_default(
        *,
        technology: RadioTechnology = DSRC,
        attack_range: Optional[float] = None,
        duration: float = 200.0,
        seed: int = 1,
        **overrides,
    ) -> "ExperimentConfig":
        """The paper's default intra-area effectiveness setting (§IV-A)."""
        geonet = GeoNetConfig(
            dist_max=technology.max_range_m,
            plausibility_threshold=technology.vehicle_range_m,
            default_rhl=10,
        )
        config = ExperimentConfig(
            technology=technology,
            geonet=geonet,
            workload=WorkloadConfig(kind=WorkloadKind.INTRA_AREA),
            attack=AttackConfig(
                kind=AttackKind.INTRA_AREA,
                attack_range=(
                    technology.nlos_median_m if attack_range is None else attack_range
                ),
            ),
            duration=duration,
            seed=seed,
        )
        return replace(config, **overrides) if overrides else config

    def with_(self, **overrides) -> "ExperimentConfig":
        """A copy with top-level fields replaced."""
        return replace(self, **overrides)

    def urbanized(self, **urban_overrides) -> "ExperimentConfig":
        """A copy switched to the urban scenario.

        Keyword arguments override :class:`UrbanConfig` fields, e.g.
        ``config.urbanized(streets_x=3, block_size=200.0)``.
        """
        urban = (
            replace(self.urban, **urban_overrides)
            if urban_overrides
            else self.urban
        )
        return replace(self, scenario="urban", urban=urban)


#: Named technologies for CLI parsing.
TECHNOLOGY_BY_NAME = {"DSRC": DSRC, "C-V2X": CV2X, "CV2X": CV2X}
