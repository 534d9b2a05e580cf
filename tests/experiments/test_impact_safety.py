"""Tests for the Fig 12 impact and Fig 13 safety scenarios (short runs)."""

import pytest

from repro.experiments.impact import (
    compare_impact,
    impact_config,
    run_impact_case,
)
from repro.experiments.figures.fig13 import fig13
from repro.experiments.safety import (
    SafetyRun,
    _CurveScenario,
    compare_safety,
    curve_config,
    run_safety_case,
)
from repro.experiments.world import World


class TestImpactConfig:
    def test_case1_is_inter_area_empty_start(self):
        config = impact_config("1")
        assert config.attack.kind.value == "inter-area"
        assert config.road.prepopulate is False
        assert config.road.directions == 1

    def test_case2_is_intra_area_populated(self):
        config = impact_config("2")
        assert config.attack.kind.value == "intra-area"
        assert config.road.prepopulate is True
        assert config.attack.attack_range == 500.0

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            impact_config("3")


class TestCase2Short:
    """Case 2 resolves within seconds, so a short run is meaningful."""

    def test_attack_free_blocks_entrance_quickly(self):
        run = run_impact_case("2", attacked=False, duration=30.0, seed=4)
        assert run.block_time is not None
        assert run.block_time < 15.0
        # Vehicle counts sampled every second.
        assert len(run.times) == pytest.approx(30, abs=2)

    def test_attacked_never_blocks_and_grows(self):
        af = run_impact_case("2", attacked=False, duration=40.0, seed=4)
        atk = run_impact_case("2", attacked=True, duration=40.0, seed=4)
        assert atk.block_time is None
        assert atk.final_count > af.final_count

    def test_compare_impact_formats(self):
        comparison = compare_impact("2", duration=20.0, seed=4)
        text = comparison.format()
        assert "Fig12 case 2" in text
        assert "attack-free" in text and "attacked" in text


class TestSafetyScenario:
    def test_attack_free_no_collision(self):
        run = run_safety_case(attacked=False, seed=1)
        assert not run.collided
        assert run.v2_warned_at is not None
        assert run.warning_sent_at is not None
        assert run.v2_warned_at > run.warning_sent_at

    def test_warning_relay_is_fast_attack_free(self):
        run = run_safety_case(attacked=False, seed=1)
        # One CBF contention timer, in the 1-100 ms window.
        assert run.v2_warned_at - run.warning_sent_at < 0.2

    def test_attacked_collides(self):
        run = run_safety_case(attacked=True, seed=1)
        assert run.collided
        assert run.v2_warned_at is None

    def test_collision_happens_in_hazard_zone(self):
        run = run_safety_case(attacked=True, seed=1)
        idx = run.times.index(
            min(run.times, key=lambda t: abs(t - run.collision_at))
        )
        assert 480.0 < run.v1_positions[idx] < 560.0

    def test_speeds_recorded_every_step(self):
        run = run_safety_case(attacked=False, seed=1, duration=10.0)
        assert len(run.times) == len(run.v1_speeds) == len(run.v2_speeds)
        assert len(run.times) == pytest.approx(100, abs=2)

    def test_attack_free_v2_slows_after_warning(self):
        run = run_safety_case(attacked=False, seed=1)
        warned_idx = next(
            i for i, t in enumerate(run.times) if t >= run.v2_warned_at
        )
        v_before = run.v2_speeds[warned_idx]
        v_after_2s = run.v2_speeds[min(warned_idx + 20, len(run.v2_speeds) - 1)]
        assert v_after_2s < v_before

    def test_collision_freezes_vehicles(self):
        run = run_safety_case(attacked=True, seed=1)
        assert run.v1_speeds[-1] == 0.0
        assert run.v2_speeds[-1] == 0.0

    def test_compare_safety_format(self):
        comparison = compare_safety(seed=1)
        text = comparison.format()
        assert "COLLISION" in text
        assert "no collision" in text

    def test_min_gap_attack_free_stays_safe(self):
        run = run_safety_case(attacked=False, seed=1)
        assert run.min_gap > 20.0


def _curve_world(attacked: bool, **overrides) -> World:
    config = curve_config(seed=1).with_(**overrides)
    scenario = _CurveScenario(SafetyRun(attacked=attacked))
    return World(config, attacked=attacked, build_workload=scenario.build)


def _curve_run(world: World) -> SafetyRun:
    """The SafetyRun the world's scripted controller records into."""
    (control,) = [
        hook
        for hook in world.traffic.on_step
        if isinstance(getattr(hook, "__self__", None), _CurveScenario)
    ]
    return control.__self__.run


class TestCurveWorld:
    """Fig 13 is a World scenario, so it gets the World's tooling."""

    def test_fig13_text_is_pinned(self):
        assert fig13().format() == (
            "Fig13: road-safety curve scenario\n"
            "  attack-free: V2 warned at t=7.99s; no collision (min gap 58.1 m)\n"
            "  attacked: V2 never warned; COLLISION at t=19.20s"
        )

    def test_vehicles_and_rsu_are_world_nodes(self):
        world = _curve_world(attacked=True)
        assert len(world.nodes) == 2
        # The two vehicles and the RSU beacon; the mast has a static slot.
        assert world.fleet.batch_slots().size == 3
        assert len(world.fleet) == 4
        assert [node.name for node in world.roadside_nodes] == ["rsu"]
        assert world.dest_nodes == []
        rsu = world.roadside_nodes[0]
        assert world.node_by_addr[rsu.address] is rsu
        assert rsu in world._iter_all_nodes()
        # The world's own intra-area blocker, one metre above the RSU.
        assert (world.attacker.position.x, world.attacker.position.y) == (
            600.0,
            31.0,
        )

    @pytest.mark.parametrize("attacked", [False, True])
    def test_restore_after_warning_matches_uninterrupted(self, attacked):
        expected = run_safety_case(attacked=attacked, seed=1)
        world = _curve_world(attacked)
        world.run(8.0)  # V1 warned at 7.9 s
        assert _curve_run(world).warning_sent_at is not None
        restored = World.restore(world.snapshot())
        restored.run()
        assert _curve_run(restored) == expected

    @pytest.mark.parametrize("attacked", [False, True])
    def test_invariant_checker_runs_clean(self, attacked):
        world = _curve_world(attacked, invariant_check_interval=0.5)
        world.run()
        assert world.invariant_checker.checks_run >= 79
        expected = run_safety_case(attacked=attacked, seed=1)
        assert _curve_run(world).format() == expected.format()
