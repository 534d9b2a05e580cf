"""Tests for the world builder (short runs to keep the suite fast)."""

import dataclasses

from repro.experiments.config import AttackKind, ExperimentConfig
from repro.experiments.world import World
from repro.traffic.road import Direction


def small_config(kind="inter", **overrides):
    factory = (
        ExperimentConfig.inter_area_default
        if kind == "inter"
        else ExperimentConfig.intra_area_default
    )
    config = factory(duration=10.0, seed=3)
    road = dataclasses.replace(config.road, length=1500.0)
    return config.with_(road=road, **overrides)


def test_world_builds_nodes_for_prepopulated_vehicles():
    world = World(small_config(), attacked=False)
    assert world.traffic.count_on_road() > 0
    assert len(world.nodes) == world.traffic.count_on_road()


def test_inter_world_has_two_destinations():
    world = World(small_config(), attacked=False)
    assert len(world.dest_nodes) == 2
    names = {n.name for n in world.dest_nodes}
    assert names == {"dest-east", "dest-west"}


def test_roadside_nodes_beacon_as_fleet_members():
    world = World(small_config(), attacked=False)
    fleet = world.fleet
    reach = world.config.vehicle_range

    def in_range(dest):
        return {
            node
            for node in world.nodes.values()
            if node.position().distance_to(dest.position()) <= reach
        }

    world.run(duration=6.0)
    earlier = {dest: in_range(dest) for dest in world.dest_nodes}
    world.run(duration=10.0)
    for dest in world.dest_nodes:
        slot = fleet.members.index(dest)
        assert fleet.ifaces[slot] is dest.iface
        # A static slot at the node's position, never stepped.
        assert (fleet.x[slot], fleet.y[slot]) == (dest.position().x, dest.position().y)
        # 10 s at a 3 s period (+ <= 0.75 s jitter): 3 or 4 beacons.
        assert 3 <= fleet.beacons_sent[slot] <= 4
        # Vehicles in range for the last 4 s (> one period + jitter) have
        # heard it.
        heard_it = earlier[dest] & in_range(dest)
        assert heard_it
        for node in heard_it:
            assert node.router.loct.contains(dest.address, world.sim.now)


def test_intra_world_has_no_destinations():
    world = World(small_config("intra"), attacked=False)
    assert world.dest_nodes == []


def test_attacker_only_in_attacked_world():
    assert World(small_config(), attacked=False).attacker is None
    assert World(small_config(), attacked=True).attacker is not None


def test_attacker_sits_mid_road_at_roadside():
    world = World(small_config(), attacked=True)
    assert world.attacker.position.x == 750.0
    assert world.attacker.position.y < 0


def test_exited_vehicles_shut_down_their_nodes():
    world = World(small_config(), attacked=False)
    world.run()
    for vehicle_id, node in world.nodes.items():
        assert not node.is_shut_down  # active map holds only live nodes
    # vehicles that exited were removed from the map
    active_ids = {v.vehicle_id for v in world.traffic.vehicles()}
    assert set(world.nodes) == active_ids


def test_inter_workload_generates_vulnerable_packets():
    world = World(small_config(), attacked=False)
    metrics = world.run()
    assert len(metrics.outcomes) >= 8  # one per second minus edges
    for outcome in metrics.outcomes:
        assert world.vulnerability.vulnerable(
            outcome.source_x, Direction(outcome.direction)
        )


def test_intra_workload_counts_receivers_against_snapshot():
    world = World(small_config("intra"), attacked=False)
    metrics = world.run()
    assert metrics.outcomes
    for outcome in metrics.outcomes:
        assert 0 < outcome.denominator
        assert 0.0 <= outcome.success <= 1.0
        assert outcome.receivers <= outcome.denominator


def test_paired_workload_is_identical_across_ab():
    af = World(small_config("intra"), attacked=False, seed=7).run()
    atk = World(small_config("intra"), attacked=True, seed=7).run()
    af_sources = [(o.send_time, round(o.source_x, 6)) for o in af.outcomes]
    atk_sources = [(o.send_time, round(o.source_x, 6)) for o in atk.outcomes]
    assert af_sources == atk_sources


def test_same_seed_reproduces_results():
    a = World(small_config("intra"), attacked=False, seed=5).run()
    b = World(small_config("intra"), attacked=False, seed=5).run()
    assert [o.success for o in a.outcomes] == [o.success for o in b.outcomes]


def test_different_seeds_differ():
    a = World(small_config("intra"), attacked=False, seed=5).run()
    b = World(small_config("intra"), attacked=False, seed=6).run()
    assert [round(o.source_x, 3) for o in a.outcomes] != [
        round(o.source_x, 3) for o in b.outcomes
    ]


def test_no_packets_in_final_second():
    world = World(small_config("intra"), attacked=False)
    metrics = world.run()
    assert all(o.send_time <= world.config.duration - 1.0 for o in metrics.outcomes)


def test_custom_workload_builder_suppresses_default():
    world = World(
        small_config("intra"), attacked=False, build_workload=lambda w: None
    )
    metrics = world.run()
    assert metrics.outcomes == []


def test_attack_kind_none_never_builds_attacker():
    config = small_config()
    config = config.with_(
        attack=dataclasses.replace(config.attack, kind=AttackKind.NONE)
    )
    world = World(config, attacked=True)
    assert world.attacker is None
