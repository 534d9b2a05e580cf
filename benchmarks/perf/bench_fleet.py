"""Performance benchmark harness for the struct-of-arrays fleet path.

Times the batched hot loops the fleet refactor introduces
(:mod:`repro.geonet.fleet`) and emits a machine-readable report:

* **dense-fleet microbenchmark** — the same acceptance scenario as
  ``bench_channel.py``'s dense500 (500 radios at 30 m spacing beaconing
  at 10 Hz), but driven through :class:`FleetBeaconScheduler`'s batched
  tick instead of N per-interface ``transmit`` calls.  The report
  compares against the channel-grid path measured live in the same
  process *and* against the checked-in ``BENCH_channel.json`` grid
  numbers.
* **fleet scaling** — the batched end-to-end beacon loop at
  N = 500 / 5 000 / 50 000 members, where the O(ticks) event heap and the
  vectorised neighbor sweep keep per-beacon cost flat.
* **mobility scaling** — one mobility step at the same N: IDM over each
  lane's fleet slots, stepped in place in the arrays the channel reads
  fleet receivers from (nothing is copied to the radio layer).
* **full World runs** — the fig-7 inter-area attacked scenario, plus one
  *city-scale* World at ~50 000 nodes.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_fleet.py [--quick] [--ns N,N,...] [--out PATH]

``--quick`` shrinks repetitions, durations and the N sweep so the whole
harness finishes in under a minute (used by the ``-m perf`` smoke test);
the emitted JSON has the same shape.  ``--ns`` overrides the member-count
sweep (same flag as ``bench_channel.py``).  All timings are
best-of-``reps`` minima to damp scheduler noise.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import PerfSnapshot
from repro.experiments.world import World
from repro.geo.position import Position
from repro.geonet.fleet import FleetBeaconScheduler
from repro.radio.channel import BroadcastChannel, RadioInterface
from repro.radio.shadowing import ManhattanShadowing
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.traffic.idm import IdmParameters
from repro.traffic.road import RoadSegment
from repro.traffic.simulation import TrafficSimulation

sys.path.insert(0, str(Path(__file__).parent))
from bench_channel import bench_end_to_end as bench_channel_end_to_end  # noqa: E402

TX_RANGE = 486.0  # DSRC NLoS-median vehicle range (paper §IV)
BEACON_HZ = 10.0  # matches bench_channel's dense-channel cadence


def load_channel_grid_reference():
    """The checked-in channel-grid dense500 numbers, if present."""
    path = Path(__file__).with_name("BENCH_channel.json")
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return data["dense_channel_microbenchmark"]["grid"]


class _Member:
    """Minimal fleet member for transport-level benchmarks: always active,
    an unsigned null payload, and a sink that discards every batch."""

    __slots__ = ("iface",)

    def __init__(self, iface):
        self.iface = iface

    def beacon_active(self):
        return True

    def beacon_extra_delay(self):
        return 0.0

    def make_beacon(self, pv, now):
        return (self.iface.address, pv), b"x" * 32, None

    def hear_beacons(self, batch, now):
        return len(batch)


# ----------------------------------------------------------------------
# batched beacon loop (transport level)
# ----------------------------------------------------------------------
def build_fleet(n: int, spacing: float):
    """A standalone channel + fleet, same lattice as ``bench_channel``.

    Rows are 250 wide and spaced ``spacing * 50`` apart so tx_range only
    reaches along a row — neighborhood size k is set by ``spacing``.
    """
    sim = Simulator()
    ch = BroadcastChannel(sim, RandomStreams(1))
    fleet = ch.fleet
    members = []
    for i in range(n):
        p = Position((i % 250) * spacing, (i // 250) * spacing * 50)
        slot = fleet.add(x=p.x, y=p.y)
        iface = RadioInterface(lambda p=p: p, TX_RANGE, slot=slot)
        iface.attach(lambda frame: None)
        ch.register(iface)
        member = _Member(iface)
        fleet.attach(slot, member, TX_RANGE)
        members.append(member)
    return sim, ch, fleet, members


def make_shadowing(n, spacing):
    """A Manhattan shadowing model spanning the benchmark lattice.

    Street count tracks the lattice extent (~one vertical street per
    10 columns) so ``blocks_many`` labels endpoints against a realistic
    urban street count, not a degenerate 2x2.
    """
    extent = min(250, n) * spacing
    streets = max(2, int(extent // (10 * spacing)) + 1)
    block = extent / (streets - 1)
    return ManhattanShadowing.for_grid(
        streets, streets, block, half_width=6.0, corner_clearance=15.0
    )


def bench_fleet_end_to_end(n, spacing, *, reps, duration, obstruction=None):
    """10 Hz beaconing through the batched tick + full event loop, tx/s.

    The fleet counterpart of ``bench_channel.bench_end_to_end``: same
    lattice, same cadence, same null payload/sink — but one tick event
    per dt instead of one timer event per member, and one vectorised
    neighbor sweep per tick instead of N grid queries.  With
    ``obstruction`` set, every delivery sweep additionally routes through
    :meth:`BroadcastChannel.block_mask` — the one obstruction evaluator
    the urban scenario pack leans on.
    """
    best = float("inf")
    sent = 0
    for _ in range(reps):
        sim, ch, fleet, _members = build_fleet(n, spacing)
        if obstruction is not None:
            ch.add_obstruction(obstruction)
        FleetBeaconScheduler(
            sim,
            fleet,
            ch,
            np.random.default_rng(7),
            period=1.0 / BEACON_HZ,
            jitter=0.0,
            tick=1.0 / BEACON_HZ,
        )
        # A --quick run times ~3 ticks (tens of ms): a full collection of
        # the objects earlier sections and this build left behind would
        # otherwise land inside the timed window of whichever run follows.
        gc.collect()
        t0 = time.perf_counter()
        sim.run_until(duration)
        best = min(best, time.perf_counter() - t0)
        sent = ch.stats.frames_sent
    return {
        "end_to_end_tx_per_s": round(sent / best, 0),
        "beacon_us_per_tx": round(best / sent * 1e6, 2),
        "beacons_sent": sent,
    }


# ----------------------------------------------------------------------
# mobility step (IDM + position propagation to the radio layer)
# ----------------------------------------------------------------------
def _build_mobility(n_target):
    spacing = 30.0
    road = RoadSegment(
        length=max(300.0, n_target / 2 * spacing), lanes_per_direction=2
    )
    sim = Simulator()
    ch = BroadcastChannel(sim, RandomStreams(1))
    fleet = ch.fleet
    traffic = TrafficSimulation(
        road, IdmParameters(), dt=0.1, rng=random.Random(1), fleet=fleet
    )

    ifaces = {}

    def attach(vehicle):
        iface = ifaces[vehicle.slot] = RadioInterface(
            vehicle.position, TX_RANGE, slot=vehicle.slot
        )
        iface.attach(lambda frame: None)
        ch.register(iface)
        fleet.attach(vehicle.slot, vehicle, TX_RANGE)

    def detach(vehicle):
        ch.unregister(ifaces.pop(vehicle.slot))

    traffic.on_spawn.append(attach)
    traffic.on_exit.append(detach)
    n = traffic.populate(spacing=spacing)
    # Build the cell index up front so the timed loop measures steady state.
    ch.neighbors_within(Position(0.0, 0.0), 1.0)
    return traffic, ch, n


def bench_mobility(n_target, *, reps, steps):
    """Best-of-``reps`` cost of one mobility step, us.

    Each timed step includes the probe query a real tick's first beacon
    would issue; it reads the fleet positions the step just wrote.
    """
    best = float("inf")
    n = 0
    probe = Position(0.0, 0.0)
    for _ in range(reps):
        traffic, ch, n = _build_mobility(n_target)
        now = 0.0
        t0 = time.perf_counter()
        for _ in range(steps):
            now += traffic.dt
            traffic.step(now)
            ch.neighbors_within(probe, 1.0)
        best = min(best, (time.perf_counter() - t0) / steps)
    return {"n_vehicles": n, "step_us": round(best * 1e6, 1)}


# ----------------------------------------------------------------------
# full World runs
# ----------------------------------------------------------------------
def bench_world(*, reps, duration, spacing=30.0):
    """One attacked inter-area World per rep; best wall time + counters."""
    best_wall = float("inf")
    snapshot = None
    config = ExperimentConfig.inter_area_default(duration=duration, seed=7)
    config = replace(
        config,
        road=replace(config.road, inter_vehicle_space=spacing),
    )
    for _ in range(reps):
        world = World(config, attacked=True)
        t0 = time.perf_counter()
        world.run()
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best_wall = wall
            snapshot = PerfSnapshot.from_world(world)
    return {
        "wall_s": round(best_wall, 3),
        "tx_per_wall_s": round(snapshot.frames_sent / best_wall, 0),
        "frames_sent": snapshot.frames_sent,
        "frames_delivered": snapshot.frames_delivered,
        "events_fired": snapshot.events_fired,
        "events_per_wall_s": round(snapshot.events_fired / best_wall, 0),
    }


def bench_world_scale(n_target, *, duration):
    """A city-scale World: ~``n_target`` nodes on one long road.

    One run: at this N a per-object event heap (one timer + ~30 delivery
    events per beacon) would be the wall the fleet tick removes.  Spawning
    is off so the node count stays fixed at the prepopulated fleet.
    """
    spacing = 30.0
    lanes_per_direction = 2
    length = n_target / lanes_per_direction * spacing
    config = ExperimentConfig.inter_area_default(duration=duration, seed=7)
    config = replace(
        config,
        road=replace(
            config.road,
            length=length,
            inter_vehicle_space=spacing,
            spawn=False,
        ),
    )
    world = World(config, attacked=False)
    n_nodes = len(world.nodes)
    t0 = time.perf_counter()
    world.run()
    wall = time.perf_counter() - t0
    snapshot = PerfSnapshot.from_world(world)
    beacons = world.fleet_scheduler.beacons_sent
    return {
        "n_nodes": n_nodes,
        "road_length_m": length,
        "duration_s": duration,
        "wall_s": round(wall, 3),
        "beacons_sent": beacons,
        "beacons_per_wall_s": round(beacons / wall, 0),
        "frames_sent": snapshot.frames_sent,
        "tx_per_wall_s": round(snapshot.frames_sent / wall, 0),
        "events_fired": snapshot.events_fired,
        "events_per_wall_s": round(snapshot.events_fired / wall, 0),
    }


def _speedup(pre, post, metric):
    """pre/post for us metrics, post/pre for throughput metrics."""
    if metric.endswith("_us") or metric == "wall_s":
        return round(pre / post, 2) if post else None
    return round(post / pre, 2) if pre else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="single-rep short runs for the -m perf smoke test",
    )
    parser.add_argument(
        "--ns",
        default=None,
        help=(
            "comma-separated member counts for the scaling sweeps "
            "(same flag as bench_channel.py, e.g. --ns 500,5000,50000)"
        ),
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "BENCH_fleet.json"),
        help="output JSON path ('-' for stdout only)",
    )
    args = parser.parse_args(argv)

    reps = 1 if args.quick else 3
    e2e_duration = 0.25 if args.quick else 1.0
    mobility_steps = 5 if args.quick else 20
    world_duration = 4.0 if args.quick else 20.0
    scale_n = 5000 if args.quick else 50000
    scale_duration = 2.0 if args.quick else 4.0
    sweep_ns = (500, 5000) if args.quick else (500, 5000, 50000)
    if args.ns:
        sweep_ns = tuple(int(s) for s in args.ns.split(","))

    def reps_for(n):
        # Big-N runs are chunky enough that one rep is representative.
        return 1 if n >= 20000 else reps

    report = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "best_of": reps,
            "tx_range_m": TX_RANGE,
            "beacon_hz": BEACON_HZ,
            "methodology": (
                "All numbers are best-of-N minima. The dense-fleet "
                "microbenchmark reuses bench_channel's lattice, cadence "
                "and null handlers, so 'channel_grid_live' (the per-"
                "interface transmit path measured in this same process) "
                "is the apples-to-apples baseline; "
                "'channel_grid_reference' is the checked-in "
                "BENCH_channel.json capture and inherits cross-run "
                "machine-load drift. World runs time the fig-7 scenario "
                "on the fleet path, the World's only vehicle path."
            ),
        },
    }

    # --- dense-fleet microbenchmark (the acceptance scenario) ----------
    fleet_dense = bench_fleet_end_to_end(
        500, 30.0, reps=reps, duration=e2e_duration
    )
    live_baseline = round(
        bench_channel_end_to_end(500, 30.0, reps=reps, duration=e2e_duration),
        0,
    )
    dense = {
        "n_members": 500,
        "spacing_m": 30.0,
        "fleet_batched": fleet_dense,
        "channel_grid_live": {"end_to_end_tx_per_s": live_baseline},
        "speedup_vs_channel_grid_live": _speedup(
            live_baseline,
            fleet_dense["end_to_end_tx_per_s"],
            "end_to_end_tx_per_s",
        ),
    }
    # Same scenario with a Manhattan shadowing model registered: the
    # delivery sweep also runs the block_mask obstruction check.  The
    # urban scenario pack must not make beaconing under obstructions
    # more than ~2x slower than the clear-channel batched loop (guarded
    # by test_perf_smoke.py within the same run).
    fleet_obstructed = bench_fleet_end_to_end(
        500,
        30.0,
        reps=reps,
        duration=e2e_duration,
        obstruction=make_shadowing(500, 30.0),
    )
    dense["fleet_batched_obstructed"] = fleet_obstructed
    dense["obstructed_slowdown"] = _speedup(
        fleet_obstructed["end_to_end_tx_per_s"],
        fleet_dense["end_to_end_tx_per_s"],
        "end_to_end_tx_per_s",
    )
    channel_ref = load_channel_grid_reference()
    if channel_ref is not None:
        dense["channel_grid_reference"] = {
            "end_to_end_tx_per_s": channel_ref["end_to_end_tx_per_s"]
        }
        dense["speedup_vs_channel_grid_reference"] = _speedup(
            channel_ref["end_to_end_tx_per_s"],
            fleet_dense["end_to_end_tx_per_s"],
            "end_to_end_tx_per_s",
        )
    report["dense_fleet_microbenchmark"] = dense

    # --- batched beacon loop scaling -----------------------------------
    scaling = {"spacing_m": 30.0, "by_n": {}}
    for n in sweep_ns:
        scaling["by_n"][str(n)] = bench_fleet_end_to_end(
            n, 30.0, reps=reps_for(n), duration=e2e_duration
        )
    report["fleet_beacon_scaling"] = scaling

    # --- mobility step scaling ------------------------------------------
    # Entries keep the "batched" key of the checked-in capture, which the
    # perf gate reads.
    mobility = {"dt_s": 0.1, "by_n": {}}
    for n in sweep_ns:
        mobility["by_n"][str(n)] = {
            "batched": bench_mobility(n, reps=reps_for(n), steps=mobility_steps)
        }
    report["mobility_step_scaling"] = mobility

    # --- full World runs ------------------------------------------------
    report["world_runs"] = {
        "scenario": "inter-area attacked, 30 m spacing, seed 7",
        "batched": bench_world(reps=reps, duration=world_duration),
    }

    # --- city-scale World ----------------------------------------------
    report["world_scale_run"] = bench_world_scale(
        scale_n, duration=scale_duration
    )

    # --- headline summary ----------------------------------------------
    by_n = report["fleet_beacon_scaling"]["by_n"]
    biggest = str(max(int(k) for k in by_n))
    scale = report["world_scale_run"]
    report["summary"] = {
        "headline": (
            f"batched beacon tick: {dense['fleet_batched']['end_to_end_tx_per_s']:.0f} tx/s "
            f"on the dense-500 scenario vs {live_baseline:.0f} tx/s through "
            f"the per-interface channel-grid path "
            f"({dense['speedup_vs_channel_grid_live']}x live in-process); "
            f"per-beacon cost stays ~flat to N={biggest} "
            f"({by_n[biggest]['beacon_us_per_tx']} us/tx); a "
            f"{scale['n_nodes']}-node World runs "
            f"{scale['duration_s']:.0f} sim-seconds in {scale['wall_s']}s wall "
            f"({scale['beacons_per_wall_s']:.0f} beacons/s)."
        ),
        "dense500_speedup_vs_channel_grid_live": dense[
            "speedup_vs_channel_grid_live"
        ],
        "dense500_speedup_vs_channel_grid_reference": dense.get(
            "speedup_vs_channel_grid_reference"
        ),
        "dense500_obstructed_slowdown": dense["obstructed_slowdown"],
    }

    payload = json.dumps(report, indent=2, sort_keys=False)
    if args.out != "-":
        Path(args.out).write_text(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
