"""Tests for experiment configuration."""

import dataclasses

import pytest

from repro.experiments.config import (
    AttackConfig,
    AttackKind,
    ExperimentConfig,
    RoadConfig,
    WorkloadConfig,
    WorkloadKind,
)
from repro.radio.technology import CV2X, DSRC, RangeClass


def test_inter_area_default_matches_paper():
    config = ExperimentConfig.inter_area_default()
    assert config.technology is DSRC
    assert config.road.length == 4000.0
    assert config.road.inter_vehicle_space == 30.0
    assert config.road.directions == 1
    assert config.geonet.loct_ttl == 20.0
    assert config.duration == 200.0
    assert config.bin_width == 5.0
    assert config.attack.kind is AttackKind.INTER_AREA
    assert config.attack.attack_range == DSRC.nlos_worst_m
    assert config.workload.kind is WorkloadKind.INTER_AREA


def test_intra_area_default_matches_paper():
    config = ExperimentConfig.intra_area_default()
    assert config.attack.kind is AttackKind.INTRA_AREA
    assert config.attack.attack_range == DSRC.nlos_median_m
    assert config.workload.kind is WorkloadKind.INTRA_AREA
    assert config.geonet.default_rhl == 10


def test_inter_area_hop_budget_covers_the_road():
    config = ExperimentConfig.inter_area_default()
    hops_available = config.geonet.default_rhl
    hops_needed = config.road.length / config.vehicle_range
    assert hops_available > hops_needed + 2


def test_vehicle_range_is_technology_nlos_median():
    assert ExperimentConfig.inter_area_default().vehicle_range == 486.0
    assert (
        ExperimentConfig.inter_area_default(technology=CV2X).vehicle_range == 593.0
    )


def test_attacker_defaults_to_road_middle():
    config = ExperimentConfig.inter_area_default()
    assert config.attacker_x == 2000.0


def test_attacker_x_override():
    config = ExperimentConfig.inter_area_default()
    config = config.with_(attack=dataclasses.replace(config.attack, x=500.0))
    assert config.attacker_x == 500.0


def test_n_bins():
    assert ExperimentConfig.inter_area_default().n_bins == 40
    assert ExperimentConfig.inter_area_default(duration=12.0).n_bins == 3


def test_attack_range_for():
    config = ExperimentConfig.inter_area_default()
    assert config.attack_range_for(RangeClass.LOS_MEDIAN) == 1283.0


def test_with_overrides():
    config = ExperimentConfig.inter_area_default(duration=60.0, seed=9)
    assert config.duration == 60.0
    assert config.seed == 9


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        RoadConfig(inter_vehicle_space=0)
    with pytest.raises(ValueError):
        AttackConfig(attack_range=0)
    with pytest.raises(ValueError):
        WorkloadConfig(packet_interval=0)
    with pytest.raises(ValueError):
        ExperimentConfig(duration=0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RoadConfig(length=0.0), "road.length"),
        (lambda: RoadConfig(lanes_per_direction=0), "road.lanes_per_direction"),
        (lambda: RoadConfig(directions=3), "road.directions"),
        (lambda: RoadConfig(inter_vehicle_space=-1.0), "road.inter_vehicle_space"),
        (lambda: RoadConfig(entry_speed=0.0), "road.entry_speed"),
        (lambda: AttackConfig(attack_range=-5.0), "attack.attack_range"),
        (lambda: AttackConfig(reaction_delay=-0.1), "attack.reaction_delay"),
        (lambda: AttackConfig(replay_range=0.0), "attack.replay_range"),
        (lambda: WorkloadConfig(packet_interval=0.0), "workload.packet_interval"),
        (lambda: WorkloadConfig(dest_offset=-1.0), "workload.dest_offset"),
        (lambda: WorkloadConfig(dest_radius=0.0), "workload.dest_radius"),
        (
            lambda: WorkloadConfig(source_xmin=100.0, source_xmax=50.0),
            "workload.source_xmax",
        ),
        (lambda: ExperimentConfig(duration=-1.0), "duration"),
        (lambda: ExperimentConfig(bin_width=0.0), "bin_width"),
        (lambda: ExperimentConfig(mobility_dt=0.0), "mobility_dt"),
        (
            lambda: ExperimentConfig(invariant_check_interval=0.0),
            "invariant_check_interval",
        ),
    ],
)
def test_validation_names_the_offending_field(build, message):
    """Every rejection is a ConfigError whose text names the bad field."""
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match=message.replace(".", r"\.")):
        build()


def test_fault_plan_rides_in_the_config():
    from repro.faults import FaultPlan

    config = ExperimentConfig.inter_area_default()
    assert config.faults.is_zero  # the default plan injects nothing
    faulted = config.with_(faults=FaultPlan.lossy(0.05))
    assert faulted.faults.link.loss_rate == 0.05
    assert faulted != config


def test_invariant_check_interval_defaults_off():
    config = ExperimentConfig.inter_area_default()
    assert config.invariant_check_interval is None
    timed = config.with_(invariant_check_interval=2.0)
    assert timed.invariant_check_interval == 2.0


def test_configs_are_frozen():
    config = ExperimentConfig.inter_area_default()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.duration = 100.0


def test_configs_are_picklable():
    import pickle

    config = ExperimentConfig.intra_area_default()
    assert pickle.loads(pickle.dumps(config)) == config
