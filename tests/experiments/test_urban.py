"""Tests for the urban scenario pack: config, world assembly, and the
store-backed ``urban`` campaign target."""

import pytest

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig, UrbanConfig
from repro.experiments.runner import run_single
from repro.experiments.world import World

# A small, fast grid for world-level tests.
SMALL = dict(
    streets_x=3, streets_y=3, block_size=200.0, inter_vehicle_space=80.0
)


def urban_config(duration=15.0, seed=3, **overrides):
    return ExperimentConfig.inter_area_default(
        duration=duration, seed=seed
    ).urbanized(**{**SMALL, **overrides})


class TestConfig:
    def test_default_scenario_is_highway(self):
        assert ExperimentConfig().scenario == "highway"

    def test_urbanized_switches_scenario_and_overrides_knobs(self):
        config = ExperimentConfig.inter_area_default().urbanized(streets_x=5)
        assert config.scenario == "urban"
        assert config.urban.streets_x == 5
        # untouched urban knobs keep their defaults
        assert config.urban.block_size == UrbanConfig().block_size

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="rural")

    def test_urban_knobs_validated(self):
        with pytest.raises(ConfigError):
            UrbanConfig(streets_x=1)
        with pytest.raises(ConfigError):
            UrbanConfig(turn_probability=1.5)
        with pytest.raises(ConfigError):
            UrbanConfig(los_half_width=1.0, lane_width=4.0)


class TestWorldAssembly:
    def test_urban_world_wires_grid_and_shadowing(self):
        world = World(urban_config(), attacked=False)
        assert world.urban
        assert world.grid is not None
        assert world.road is None
        assert world.shadowing is not None
        assert world.channel.has_obstructions
        assert world.vehicles_on_road() > 0

    def test_highway_world_has_no_urban_machinery(self):
        config = ExperimentConfig.inter_area_default(duration=10.0)
        world = World(config, attacked=False)
        assert not world.urban
        assert world.grid is None
        assert world.shadowing is None
        assert not world.channel.has_obstructions

    def test_destinations_sit_on_the_central_street(self):
        world = World(urban_config(), attacked=False)
        for node in world.dest_nodes:
            assert world.shadowing.on_street(node.mobility.position())

    def test_attacker_mast_is_on_street(self):
        world = World(urban_config(), attacked=True)
        assert world.attacker is not None
        assert world.shadowing.on_street(world.attacker.position)

    def test_vehicle_nodes_follow_grid_positions(self):
        world = World(urban_config(), attacked=False)
        world.run(duration=5.0)
        for vehicle in world.traffic.vehicles():
            node = world.nodes.get(vehicle.vehicle_id)
            if node is None:
                continue
            pos = node.mobility.position()
            assert pos.x == vehicle.x and pos.y == vehicle.y


class TestUrbanRuns:
    @pytest.mark.slow
    def test_inter_area_delivers_attack_free(self):
        result = run_single(urban_config(duration=20.0), attacked=False)
        assert result.n_packets > 0
        assert result.overall_rate > 0.0

    @pytest.mark.slow
    def test_intra_area_flood_reaches_part_of_the_grid(self):
        config = ExperimentConfig.intra_area_default(
            duration=20.0, seed=3
        ).urbanized(**SMALL)
        result = run_single(config, attacked=False)
        assert result.n_packets > 0
        assert 0.0 < result.overall_rate <= 1.0

    @pytest.mark.slow
    def test_dcc_counters_only_appear_when_enabled(self):
        import dataclasses

        off = run_single(urban_config(duration=10.0), attacked=False)
        assert not any(k.startswith("stats_dcc_") for k in off.extras)
        cfg = urban_config(duration=10.0)
        cfg = cfg.with_(
            geonet=dataclasses.replace(cfg.geonet, dcc_enabled=True)
        )
        on = run_single(cfg, attacked=False)
        assert on.extras["stats_dcc_samples"] > 0


class TestUrbanSweep:
    def _shrink(self, monkeypatch):
        from repro.experiments import urban

        monkeypatch.setattr(urban, "ATTACKS", ("inter-area",))
        monkeypatch.setattr(urban, "SCENARIOS", ("highway", "urban"))
        monkeypatch.setattr(urban, "DCC_LEVELS", (False,))
        monkeypatch.setattr(urban, "FORWARDERS", ("sfot+",))
        monkeypatch.setattr(urban, "URBAN_OVERRIDES", dict(SMALL))

    def test_urban_sweep_renders_the_grid(self, monkeypatch):
        from repro.experiments import urban

        self._shrink(monkeypatch)
        sweep = urban.urban_sweep(runs=1, duration=10.0, seed=2)
        assert len(sweep.cells) == 2
        text = sweep.format()
        assert "scenario x DCC x forwarder" in text
        assert "urban" in text and "highway" in text
        cell = sweep.get("inter-area", "urban", False, "sfot+")
        assert cell.result.config.scenario == "urban"
        assert cell.result.config.geonet.cbf_variant == "sfot+"

    @pytest.mark.slow
    def test_urban_sweep_through_store_backed_campaign(
        self, monkeypatch, tmp_path
    ):
        from repro.experiments import urban
        from repro.experiments.service.scheduler import run_service_campaign
        from repro.experiments.sqlite_store import SqliteResultStore

        self._shrink(monkeypatch)
        store = SqliteResultStore(tmp_path / "results.sqlite")
        kw = dict(runs=1, duration=10.0, seed=2, workers=1)
        report = run_service_campaign(["urban"], store=store, **kw)
        assert report.ok
        assert report.executed == 4  # 2 cells x (af + atk)
        assert "urban" in report.outputs["urban"]
        # Resume: nothing left to execute, the artefact assembles from
        # the store alone.
        again = run_service_campaign(["urban"], store=store, **kw)
        assert again.executed == 0
        assert again.skipped == report.executed
        assert again.outputs["urban"] == report.outputs["urban"]
