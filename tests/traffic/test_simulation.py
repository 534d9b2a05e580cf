"""Tests for the traffic microsimulation loop."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geonet.fleet import FleetState
from repro.sim.engine import Simulator
from repro.traffic.grid import GridRoadNetwork
from repro.traffic.hazard import HazardEvent
from repro.traffic.idm import IdmParameters
from repro.traffic.road import HORIZONTAL, VERTICAL, Direction, RoadSegment
from repro.traffic.simulation import TrafficSimulation
from repro.traffic.spawner import EntranceSpawner


def make_sim(road=None, spawner=None, rng=None, **kwargs):
    return TrafficSimulation(
        road or RoadSegment(length=1000.0, lanes_per_direction=1),
        IdmParameters(),
        spawner=spawner,
        rng=rng,
        **kwargs,
    )


def step_for(traffic, seconds):
    steps = int(seconds / traffic.dt)
    t = 0.0
    for _ in range(steps):
        t += traffic.dt
        traffic.step(t)


def test_single_vehicle_cruises_at_desired_speed():
    traffic = make_sim()
    lane = traffic.road.lanes[0]
    vehicle = traffic.add_vehicle(lane, 0.0, 30.0)
    step_for(traffic, 10.0)
    assert vehicle.speed == pytest.approx(30.0, abs=0.1)
    assert vehicle.x == pytest.approx(300.0, rel=0.02)


def test_slow_vehicle_accelerates_toward_desired_speed():
    traffic = make_sim(road=RoadSegment(length=10000.0, lanes_per_direction=1))
    lane = traffic.road.lanes[0]
    vehicle = traffic.add_vehicle(lane, 0.0, 10.0)
    step_for(traffic, 60.0)
    assert vehicle.speed == pytest.approx(30.0, abs=0.5)


def test_follower_keeps_safe_gap_behind_slow_leader():
    traffic = make_sim(road=RoadSegment(length=100000.0, lanes_per_direction=1))
    lane = traffic.road.lanes[0]
    leader = traffic.add_vehicle(lane, 100.0, 15.0, speed_factor=0.5)
    follower = traffic.add_vehicle(lane, 0.0, 30.0)
    step_for(traffic, 60.0)
    assert follower.speed == pytest.approx(leader.speed, abs=1.0)
    gap = leader.s - follower.s - traffic.params.vehicle_length
    assert gap > 2.0  # never closer than the minimum distance
    assert traffic.rear_end_contacts == 0


def test_vehicle_exits_at_end_of_road():
    traffic = make_sim()
    lane = traffic.road.lanes[0]
    exited = []
    traffic.on_exit.append(exited.append)
    vehicle = traffic.add_vehicle(lane, 995.0, 30.0)
    step_for(traffic, 2.0)
    assert exited == [vehicle]
    assert not vehicle.active
    assert traffic.count_on_road() == 0


def test_westbound_vehicle_moves_toward_zero():
    traffic = make_sim(road=RoadSegment(length=1000.0, lanes_per_direction=1, directions=2))
    lane = traffic.road.westbound_lanes[0]
    vehicle = traffic.add_vehicle(lane, lane.progress(900.0), 30.0)
    step_for(traffic, 5.0)
    assert vehicle.x == pytest.approx(750.0, rel=0.02)


def test_westbound_vehicle_exits_at_west_end():
    traffic = make_sim(road=RoadSegment(length=1000.0, lanes_per_direction=1, directions=2))
    lane = traffic.road.westbound_lanes[0]
    vehicle = traffic.add_vehicle(lane, lane.progress(10.0), 30.0)
    step_for(traffic, 2.0)
    assert traffic.count_on_road(Direction.WEST) == 0


def test_populate_density():
    traffic = make_sim(road=RoadSegment(length=990.0, lanes_per_direction=2))
    created = traffic.populate(spacing=30.0)
    assert created == 2 * (int(990 // 30) + 1)
    assert traffic.count_on_road() == created


def test_populate_with_rng_jitters_positions():
    rng = random.Random(1)
    traffic = make_sim(
        road=RoadSegment(length=900.0, lanes_per_direction=2), rng=rng
    )
    traffic.populate(spacing=30.0)
    lane0 = traffic.lane_vehicles(traffic.road.lanes[0])
    lane1 = traffic.lane_vehicles(traffic.road.lanes[1])
    xs0 = {round(v.x, 3) for v in lane0}
    xs1 = {round(v.x, 3) for v in lane1}
    # Staggering + jitter: the two lanes must not be position-aligned.
    assert len(xs0 & xs1) < min(len(xs0), len(xs1)) / 4


def test_populate_draws_speed_factors():
    rng = random.Random(2)
    traffic = make_sim(rng=rng)
    traffic.populate(spacing=100.0)
    factors = {traffic.fleet.speed_factor[v.slot] for v in traffic.vehicles()}
    assert len(factors) > 1
    assert all(0.9 < f < 1.1 for f in factors)


def test_spawner_admits_vehicles_with_gap():
    spawner = EntranceSpawner(spawn_gap=30.0, entry_speed=30.0)
    traffic = make_sim(spawner=spawner)
    step_for(traffic, 10.0)
    assert spawner.spawned_count >= 8
    # all spawned in the single eastbound lane, ordered by progress
    vehicles = traffic.lane_vehicles(traffic.road.lanes[0])
    progresses = [v.s for v in vehicles]
    assert progresses == sorted(progresses)


def test_spawner_blocked_direction_admits_nothing():
    spawner = EntranceSpawner(spawn_gap=30.0)
    spawner.block(Direction.EAST)
    traffic = make_sim(spawner=spawner)
    step_for(traffic, 5.0)
    assert spawner.spawned_count == 0


def test_on_spawn_callback_fires_for_populate_and_spawner():
    spawner = EntranceSpawner(spawn_gap=30.0)
    traffic = make_sim(spawner=spawner)
    seen = []
    traffic.on_spawn.append(seen.append)
    traffic.populate(spacing=500.0)
    n_populated = len(seen)
    assert n_populated == traffic.count_on_road()
    step_for(traffic, 3.0)
    assert len(seen) > n_populated


def test_hazard_stops_traffic_behind_it():
    traffic = make_sim(road=RoadSegment(length=2000.0, lanes_per_direction=1))
    traffic.add_hazard(HazardEvent(x=500.0, direction=Direction.EAST, start_time=0.0))
    lane = traffic.road.lanes[0]
    vehicle = traffic.add_vehicle(lane, 300.0, 30.0)
    step_for(traffic, 30.0)
    assert vehicle.speed == pytest.approx(0.0, abs=0.1)
    assert vehicle.x < 500.0


def test_hazard_does_not_stop_vehicles_past_it():
    traffic = make_sim(road=RoadSegment(length=2000.0, lanes_per_direction=1))
    traffic.add_hazard(HazardEvent(x=500.0, direction=Direction.EAST, start_time=0.0))
    lane = traffic.road.lanes[0]
    vehicle = traffic.add_vehicle(lane, 600.0, 30.0)
    step_for(traffic, 5.0)
    assert vehicle.speed == pytest.approx(30.0, abs=0.5)


def test_hazard_does_not_affect_other_direction():
    traffic = make_sim(
        road=RoadSegment(length=2000.0, lanes_per_direction=1, directions=2)
    )
    traffic.add_hazard(HazardEvent(x=500.0, direction=Direction.EAST, start_time=0.0))
    lane = traffic.road.westbound_lanes[0]
    vehicle = traffic.add_vehicle(lane, lane.progress(1500.0), 30.0)
    step_for(traffic, 10.0)
    assert vehicle.speed == pytest.approx(30.0, abs=0.5)


def test_hazard_inactive_before_start_time():
    traffic = make_sim(road=RoadSegment(length=2000.0, lanes_per_direction=1))
    traffic.add_hazard(
        HazardEvent(x=500.0, direction=Direction.EAST, start_time=1000.0)
    )
    lane = traffic.road.lanes[0]
    vehicle = traffic.add_vehicle(lane, 400.0, 30.0)
    step_for(traffic, 3.0)
    assert vehicle.speed == pytest.approx(30.0, abs=0.5)


def test_queue_forms_behind_hazard():
    spawner = EntranceSpawner(spawn_gap=30.0)
    traffic = make_sim(
        road=RoadSegment(length=2000.0, lanes_per_direction=1), spawner=spawner
    )
    traffic.add_hazard(HazardEvent(x=600.0, direction=Direction.EAST, start_time=0.0))
    step_for(traffic, 120.0)
    stopped = [v for v in traffic.vehicles() if v.speed < 0.5]
    assert len(stopped) >= 5
    xs = sorted(v.x for v in stopped)
    # queued bumper to bumper short of the hazard
    assert xs[-1] < 600.0
    assert xs[-1] - xs[0] < len(stopped) * 10.0


def test_forced_acceleration_overrides_idm():
    traffic = make_sim(road=RoadSegment(length=10000.0, lanes_per_direction=1))
    lane = traffic.road.lanes[0]
    vehicle = traffic.add_vehicle(lane, 0.0, 10.0, forced_acceleration=0.0)
    step_for(traffic, 10.0)
    assert vehicle.speed == pytest.approx(10.0)


def test_speed_never_negative_under_forced_braking():
    traffic = make_sim()
    lane = traffic.road.lanes[0]
    vehicle = traffic.add_vehicle(lane, 0.0, 5.0, forced_acceleration=-8.0)
    step_for(traffic, 5.0)
    assert vehicle.speed == 0.0


def test_on_step_callbacks_fire_each_step():
    traffic = make_sim()
    ticks = []
    traffic.on_step.append(ticks.append)
    step_for(traffic, 1.0)
    assert len(ticks) == 10


def test_start_schedules_periodic_stepping():
    sim = Simulator()
    traffic = make_sim()
    lane = traffic.road.lanes[0]
    vehicle = traffic.add_vehicle(lane, 0.0, 30.0)
    traffic.start(sim)
    sim.run_until(5.0)
    assert vehicle.x == pytest.approx(150.0, rel=0.05)


def test_start_twice_raises():
    sim = Simulator()
    traffic = make_sim()
    traffic.start(sim)
    with pytest.raises(RuntimeError):
        traffic.start(sim)


def test_invalid_dt_rejected():
    with pytest.raises(ValueError):
        make_sim(dt=0.0)


def test_runout_keeps_vehicles_past_the_segment():
    traffic = make_sim()
    traffic.runout = 200.0
    lane = traffic.road.lanes[0]
    vehicle = traffic.add_vehicle(lane, 995.0, 30.0)
    step_for(traffic, 3.0)
    # Past the segment but inside the runout: still active, not counted.
    assert vehicle.active
    assert traffic.count_on_road() == 0
    assert list(traffic.vehicles(on_road_only=True)) == []
    assert list(traffic.vehicles()) == [vehicle]
    step_for(traffic, 7.0)
    assert not vehicle.active


def test_negative_runout_rejected():
    with pytest.raises(ValueError):
        TrafficSimulation(
            RoadSegment(length=100.0, lanes_per_direction=1), runout=-1.0
        )


def test_overlap_guard_never_moves_a_vehicle_backwards():
    traffic = make_sim()
    lane = traffic.road.lanes[0]
    traffic.add_vehicle(lane, 10.0, 0.0, forced_acceleration=0.0)
    follower = traffic.add_vehicle(lane, 8.0, 0.0)
    traffic.step(traffic.dt)
    # The bumpers overlap; the guard may hold the follower but must not
    # teleport it back to 10 - 4.5 - 0.1 = 5.4.
    assert follower.s == 8.0
    assert follower.speed == 0.0
    assert traffic.rear_end_contacts == 1


_LENGTH = 600.0

_drivers = st.lists(
    st.tuples(
        st.floats(0.0, _LENGTH),
        st.floats(0.0, 40.0),
        st.floats(0.9, 1.1),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=30, deadline=None)
@given(drivers=_drivers, n_steps=st.integers(1, 60))
def test_mirrored_and_rotated_lanes_drive_identically(drivers, n_steps):
    """Mirroring or rotating a lane changes nothing (metamorphic).

    The same drivers on an eastbound and a westbound highway lane and on a
    vertical and a horizontal grid lane (no turns, so crossing an
    intersection is a no-op), sharing one fleet, end with identical
    progress and speeds, and every coordinate in the fleet arrays is
    ``lane.point_at(s)`` exactly.
    """
    params = IdmParameters()
    fleet = FleetState(capacity=64)
    highway = TrafficSimulation(
        RoadSegment(length=_LENGTH, lanes_per_direction=1, directions=2),
        params, runout=100.0, fleet=fleet,
    )
    network = GridRoadNetwork(streets_x=2, streets_y=2, block_size=_LENGTH)
    grid = TrafficSimulation(
        network, params, runout=100.0, turn_probability=0.0, fleet=fleet
    )
    lanes = [
        (highway, highway.road.eastbound_lanes[0]),
        (highway, highway.road.westbound_lanes[0]),
        (grid, network.lane(VERTICAL, 1, +1)),
        (grid, network.lane(HORIZONTAL, 0, -1)),
    ]
    for traffic, lane in lanes:
        for s, speed, factor in drivers:
            traffic.add_vehicle(lane, s, speed, speed_factor=factor)
    t = 0.0
    for _ in range(n_steps):
        t += 0.1
        highway.step(t)
        grid.step(t)
    states = []
    for traffic, lane in lanes:
        vehicles = traffic.lane_vehicles(lane)
        states.append(([v.s for v in vehicles], [v.speed for v in vehicles]))
        for v in vehicles:
            assert (v.x, v.y) == lane.point_at(v.s)
    assert all(state == states[0] for state in states[1:])
