#!/usr/bin/env python
"""Quickstart: build a small V2X world and watch both attacks in action.

Runs three miniature scenarios on a 2 km road:

1. attack-free baseline — a GF packet crosses the road, a CBF flood
   reaches every vehicle;
2. the inter-area interception attack — a roadside beacon replayer makes a
   forwarder unicast into the void;
3. the intra-area blockage attack — a single replayed packet with RHL=1
   silences the flood past the attacker.

Usage: python examples/quickstart.py
"""

from repro.core import InterAreaInterceptor, IntraAreaBlocker
from repro.geo import CircularArea, Position, RectangularArea
from repro.geonet import (
    FleetBeaconScheduler,
    GeoNetConfig,
    GeoNode,
    StaticMobility,
)
from repro.radio import BroadcastChannel, DSRC
from repro.security import CertificateAuthority
from repro.sim import RandomStreams, Simulator


def build_world(seed: int = 7):
    """A simulator, a channel, a CA and ten parked vehicles 250 m apart,
    beaconing through one fleet tick."""
    sim = Simulator()
    streams = RandomStreams(seed)
    channel = BroadcastChannel(sim, streams)
    ca = CertificateAuthority()
    config = GeoNetConfig(dist_max=DSRC.max_range_m)
    fleet = channel.fleet
    FleetBeaconScheduler(
        sim,
        fleet,
        channel,
        streams.get_numpy("fleet-beacon"),
        period=config.beacon_period,
        jitter=config.beacon_jitter,
    )
    nodes = []
    for i in range(10):
        position = Position(i * 250.0, 0.0)
        node = GeoNode(
            sim=sim,
            channel=channel,
            config=config,
            credentials=ca.enroll(f"vehicle-{i}"),
            mobility=StaticMobility(position),
            tx_range=DSRC.vehicle_range_m,  # 486 m NLoS median (Table II)
            rng=streams.get(f"beacon:{i}"),
            name=f"vehicle-{i}",
            slot=fleet.add(x=position.x, y=position.y),
        )
        nodes.append(node)
    return sim, streams, channel, ca, nodes


def watch(nodes):
    """Attach delivery counters to every node."""
    received = {node.name: [] for node in nodes}
    for node in nodes:
        node.router.on_deliver.append(
            lambda n, packet: received[n.name].append(packet.body.payload)
        )
    return received


def scenario_baseline():
    print("=== 1. attack-free baseline ===")
    sim, _streams, channel, _ca, nodes = build_world()
    received = watch(nodes)
    sim.run_until(10.0)  # beacons populate every location table

    # Greedy Forwarding: vehicle-0 sends toward a small area at the far end.
    far_area = CircularArea(Position(2250.0, 0.0), 30.0)
    nodes[0].originate(far_area, "GF: road closed ahead")
    sim.run_until(12.0)
    print(f"  GF delivery at far end: {received['vehicle-9']}")

    # Contention-Based Forwarding: flood the whole segment.
    whole_road = RectangularArea(-100, 2500, -50, 50)
    nodes[0].originate(whole_road, "CBF: hazard warning")
    sim.run_until(14.0)
    flooded = sum(1 for msgs in received.values() if "CBF: hazard warning" in msgs)
    print(f"  CBF flood reached {flooded}/10 vehicles")
    print(f"  frames on air: {channel.stats.frames_sent}")


def scenario_inter_area_attack():
    print("=== 2. inter-area interception attack ===")
    sim, streams, channel, _ca, nodes = build_world()
    received = watch(nodes)
    attacker = InterAreaInterceptor(
        sim=sim,
        channel=channel,
        streams=streams,
        position=Position(1100.0, -10.0),  # roadside, mid-segment
        attack_range=DSRC.los_median_m,  # a mast with line of sight
    )
    sim.run_until(10.0)
    far_area = CircularArea(Position(2250.0, 0.0), 30.0)
    nodes[0].originate(far_area, "GF: road closed ahead")
    sim.run_until(12.0)
    print(f"  beacons replayed by the attacker: {attacker.beacons_replayed}")
    print(f"  GF delivery at far end: {received['vehicle-9']} (expected: none)")
    print(f"  unicasts lost in the void: {channel.stats.unicast_lost}")


def scenario_intra_area_attack():
    print("=== 3. intra-area blockage attack ===")
    sim, streams, channel, _ca, nodes = build_world()
    received = watch(nodes)
    attacker = IntraAreaBlocker(
        sim=sim,
        channel=channel,
        streams=streams,
        position=Position(1100.0, -10.0),
        attack_range=500.0,  # the paper's most effective range
    )
    sim.run_until(10.0)
    whole_road = RectangularArea(-100, 2500, -50, 50)
    nodes[0].originate(whole_road, "CBF: hazard warning")
    sim.run_until(12.0)
    flooded = sum(1 for msgs in received.values() if msgs)
    print(f"  packets replayed by the attacker: {attacker.packets_replayed}")
    print(f"  CBF flood reached {flooded}/10 vehicles (attack-free: 10/10)")
    blocked = [name for name, msgs in received.items() if not msgs]
    print(f"  blocked vehicles: {', '.join(blocked)}")


if __name__ == "__main__":
    scenario_baseline()
    print()
    scenario_inter_area_attack()
    print()
    scenario_intra_area_attack()
