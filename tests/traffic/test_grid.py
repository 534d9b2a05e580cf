"""Tests for the Manhattan-grid road network and traffic driving it."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.traffic.grid import GridRoadNetwork
from repro.traffic.idm import IdmParameters
from repro.traffic.road import HORIZONTAL, VERTICAL, Direction
from repro.traffic.simulation import TrafficSimulation
from repro.traffic.spawner import EntranceSpawner


def make_network(**kwargs):
    defaults = dict(streets_x=3, streets_y=3, block_size=200.0, lane_width=4.0)
    defaults.update(kwargs)
    return GridRoadNetwork(**defaults)


def make_sim(network=None, *, seed=1, spawner=None, **kwargs):
    network = network if network is not None else make_network()
    kwargs.setdefault("runout", 300.0)
    return network, TrafficSimulation(
        network,
        IdmParameters(desired_velocity=14.0),
        spawner=spawner,
        rng=random.Random(seed),
        **kwargs,
    )


class TestNetworkGeometry:
    def test_two_corridors_per_street(self):
        network = make_network()
        # 3 horizontal + 3 vertical streets, 2 directed lanes each.
        assert len(network.lanes) == 12

    def test_extent(self):
        network = make_network()
        assert network.width == pytest.approx(400.0)
        assert network.height == pytest.approx(400.0)

    def test_right_hand_lane_offsets(self):
        network = make_network()
        east = network.lane(HORIZONTAL, 1, +1)
        west = network.lane(HORIZONTAL, 1, -1)
        # Right-hand traffic on the y=200 street: eastbound drives south of
        # the centerline, westbound north of it.
        assert east.lane_coord == pytest.approx(198.0)
        assert west.lane_coord == pytest.approx(202.0)
        north = network.lane(VERTICAL, 1, +1)
        south = network.lane(VERTICAL, 1, -1)
        assert north.lane_coord == pytest.approx(202.0)
        assert south.lane_coord == pytest.approx(198.0)

    def test_corridor_direction_maps_to_highway_enum(self):
        network = make_network()
        assert network.lane(HORIZONTAL, 0, +1).direction is Direction.EAST
        assert network.lane(HORIZONTAL, 0, -1).direction is Direction.WEST

    def test_point_at_respects_travel_direction(self):
        network = make_network()
        east = network.lane(HORIZONTAL, 0, +1)
        west = network.lane(HORIZONTAL, 0, -1)
        assert east.point_at(0.0)[0] == pytest.approx(0.0)
        assert east.point_at(100.0)[0] == pytest.approx(100.0)
        # The westbound lane starts at the east edge.
        assert west.point_at(0.0)[0] == pytest.approx(400.0)
        assert west.point_at(100.0)[0] == pytest.approx(300.0)

    def test_turn_targets_land_on_crossing_street(self):
        network = make_network()
        east = network.lane(HORIZONTAL, 1, +1)
        for cross_index in range(len(east.cross_s)):
            for turn in ("left", "right"):
                target, s = network.turn_target(east, cross_index, turn)
                assert target.axis == VERTICAL
                x, y = target.point_at(s)
                # The transfer lands at the intersection being crossed.
                cross = east.cross_points[cross_index]
                assert x == pytest.approx(target.lane_coord)
                assert y == pytest.approx(cross.y)

    def test_needs_two_streets_per_axis(self):
        with pytest.raises(ValueError):
            make_network(streets_x=1)


class TestTrafficSimulation:
    def test_populate_fills_every_corridor(self):
        network, traffic = make_sim()
        traffic.populate(spacing=80.0, speed=10.0)
        assert traffic.count_on_road() > 0
        per_lane = {c: 0 for c in network.lanes}
        for vehicle in traffic.vehicles():
            per_lane[vehicle.lane] += 1
        assert all(n > 0 for n in per_lane.values())

    def test_vehicles_stay_on_streets(self):
        network, traffic = make_sim()
        traffic.populate(spacing=80.0, speed=10.0)
        sim = Simulator()
        traffic.start(sim)
        sim.run_until(30.0)
        hw = network.lane_width
        for vehicle in traffic.vehicles():
            on_h = any(
                abs(vehicle.y - sy) <= hw for sy in network.ys
            )
            on_v = any(
                abs(vehicle.x - sx) <= hw for sx in network.xs
            )
            assert on_h or on_v, (vehicle.x, vehicle.y)

    def test_turns_happen_and_are_counted(self):
        _network, traffic = make_sim(turn_probability=0.5)
        traffic.populate(spacing=80.0, speed=10.0)
        sim = Simulator()
        traffic.start(sim)
        sim.run_until(30.0)
        assert traffic.turns_total > 0
        assert any(v.turns_taken > 0 for v in traffic.vehicles())

    def test_zero_turn_probability_keeps_headings(self):
        _network, traffic = make_sim(turn_probability=0.0)
        traffic.populate(spacing=80.0, speed=10.0)
        sim = Simulator()
        traffic.start(sim)
        sim.run_until(20.0)
        assert traffic.turns_total == 0

    def test_runout_retires_vehicles(self):
        _network, traffic = make_sim(turn_probability=0.0, runout=50.0)
        exited = []
        traffic.on_exit.append(exited.append)
        traffic.populate(spacing=80.0, speed=14.0)
        sim = Simulator()
        traffic.start(sim)
        sim.run_until(60.0)
        assert exited
        assert all(not v.active for v in exited)

    def test_spawner_adds_vehicles(self):
        spawner = EntranceSpawner(
            spawn_gap=40.0, entry_speed=10.0, gap_jitter=0.3,
            rng=random.Random(3),
        )
        _network, traffic = make_sim(spawner=spawner)
        spawned = []
        traffic.on_spawn.append(spawned.append)
        sim = Simulator()
        traffic.start(sim)
        sim.run_until(20.0)
        assert spawned
        assert traffic.count_on_road() > 0

    def test_same_seed_is_deterministic(self):
        def snapshot(seed):
            _n, traffic = make_sim(seed=seed, turn_probability=0.4)
            traffic.populate(spacing=80.0, speed=10.0)
            sim = Simulator()
            traffic.start(sim)
            sim.run_until(25.0)
            return sorted(
                (v.vehicle_id, round(v.x, 9), round(v.y, 9), v.turns_taken)
                for v in traffic.vehicles()
            )

        assert snapshot(5) == snapshot(5)
        assert snapshot(5) != snapshot(6)

    def test_count_on_road_by_direction(self):
        _network, traffic = make_sim()
        traffic.populate(spacing=80.0, speed=10.0)
        total = traffic.count_on_road()
        by_direction = sum(
            traffic.count_on_road(d) for d in (Direction.EAST, Direction.WEST)
        )
        assert by_direction == total

    def test_fleet_arrays_follow_turning_vehicles(self):
        _network, traffic = make_sim(turn_probability=0.5)
        traffic.populate(spacing=80.0, speed=10.0)
        sim = Simulator()
        traffic.start(sim)
        sim.run_until(30.0)
        assert traffic.turns_total > 0
        fleet = traffic.fleet
        for vehicle in traffic.vehicles():
            slot = vehicle.slot
            point = vehicle.lane.point_at(vehicle.s)
            assert (fleet.x[slot], fleet.y[slot]) == point
            assert fleet.heading[slot] == vehicle.lane.heading
