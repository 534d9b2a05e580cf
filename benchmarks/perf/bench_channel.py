"""Performance benchmark harness for the radio channel's receiver lookup.

Times the three layers a receiver-lookup change touches and emits a
machine-readable report (its ``grid`` entries keep the name of the
spatial grid they were first captured with; they time the fleet's cell
index now):

* **dense-channel microbenchmark** — 500 interfaces at 30 m spacing
  beaconing at 10 Hz (the ISSUE's acceptance scenario): end-to-end event
  throughput plus per-call ``transmit`` and receiver-selection cost.
* **neighbor-query scaling** — the same microbenchmarks at 300 m spacing
  with N = 500…4000 interfaces, where the O(k) selection keeps the
  per-call cost flat as N grows.
* **full World runs** — three traffic densities of the paper's inter-area
  scenario, reported through :class:`repro.experiments.reporting.PerfSnapshot`.

The report embeds ``pre_change_reference`` — the same workloads measured at
the pre-grid seed commit (e78bade) on the reference machine — so speedups
are stated against the linear-scan code the grid replaced.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_channel.py [--quick] [--out PATH]

``--quick`` shrinks repetitions and run durations so the whole harness
finishes in a few seconds (used by the ``-m perf`` smoke test); the emitted
JSON has the same shape.  All timings use best-of-``reps`` minima to damp
scheduler noise.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import PerfSnapshot
from repro.experiments.world import World
from repro.geo.position import Position
from repro.radio.channel import BroadcastChannel, RadioInterface
from repro.radio.frames import FrameKind
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

TX_RANGE = 486.0  # DSRC NLoS-median vehicle range (paper §IV)

#: The same workloads, measured at the pre-change seed commit (e78bade) on
#: the reference machine (1-vCPU Linux, CPython 3.11): best-of-3 minima of
#: alternating seed/current process runs via a seed-commit git worktree and
#: this script's bench functions.  ``dense500`` is 30 m spacing; the
#: ``n*`` entries are 300 m spacing.  World runs: inter-area attacked,
#: duration 20 s, seed 7, best of 4 alternating runs.
PRE_CHANGE_REFERENCE = {
    "commit": "e78bade",
    "machine": "reference (1 vCPU Linux, CPython 3.11)",
    "microbenchmarks": {
        "dense500": {
            "transmit_call_us": 94.49,
            "receivers_for_us": 15.96,
            "end_to_end_tx_per_s": 6051.0,
        },
        "n500": {
            "transmit_call_us": 19.70,
            "receivers_for_us": 9.35,
            "end_to_end_tx_per_s": 34299.0,
        },
        "n1000": {
            "transmit_call_us": 22.30,
            "receivers_for_us": 12.04,
            "end_to_end_tx_per_s": 32733.0,
        },
        "n2000": {
            "transmit_call_us": 25.66,
            "receivers_for_us": 16.23,
            "end_to_end_tx_per_s": 25029.0,
        },
        "n4000": {
            "transmit_call_us": 35.79,
            "receivers_for_us": 24.04,
            "end_to_end_tx_per_s": 19810.0,
        },
    },
    "world_runs": {
        "20": {"wall_s": 2.165, "tx_per_wall_s": 1384.0, "frames_sent": 2996},
        "30": {"wall_s": 1.062, "tx_per_wall_s": 1947.0, "frames_sent": 2068},
        "60": {"wall_s": 0.341, "tx_per_wall_s": 3207.0, "frames_sent": 1095},
    },
    "post_change_on_reference_machine": {
        "dense500": {
            "transmit_call_us": 46.81,
            "receivers_for_us": 13.64,
            "end_to_end_tx_per_s": 13949.0,
        },
        "n500": {
            "transmit_call_us": 10.54,
            "receivers_for_us": 4.26,
            "end_to_end_tx_per_s": 65893.0,
        },
        "n1000": {
            "transmit_call_us": 10.83,
            "receivers_for_us": 4.32,
            "end_to_end_tx_per_s": 63329.0,
        },
        "n2000": {
            "transmit_call_us": 10.86,
            "receivers_for_us": 4.30,
            "end_to_end_tx_per_s": 63655.0,
        },
        "n4000": {
            "transmit_call_us": 11.09,
            "receivers_for_us": 4.41,
            "end_to_end_tx_per_s": 57996.0,
        },
        "world_runs": {
            "20": {"wall_s": 1.417, "tx_per_wall_s": 2114.0},
            "30": {"wall_s": 0.711, "tx_per_wall_s": 2907.0},
            "60": {"wall_s": 0.257, "tx_per_wall_s": 4260.0},
        },
    },
}


# ----------------------------------------------------------------------
# channel microbenchmarks
# ----------------------------------------------------------------------
def build_channel(n: int, spacing: float):
    """A standalone channel with ``n`` interfaces on a 250-wide lattice.

    Rows are spaced ``spacing * 50`` apart so tx_range only reaches along a
    row — neighborhood size k is set by ``spacing``, not by n.
    """
    sim = Simulator()
    ch = BroadcastChannel(sim, RandomStreams(1))
    ifaces = []
    for i in range(n):
        p = Position((i % 250) * spacing, (i // 250) * spacing * 50)
        iface = RadioInterface(lambda p=p: p, TX_RANGE)
        iface.attach(lambda frame: None)
        ch.register(iface)
        ifaces.append(iface)
    return sim, ch, ifaces


def bench_transmit_call(n, spacing, *, reps, rounds=3):
    """Best-of-``reps`` per-call cost of transmit (selection + enqueue), us."""
    sim, ch, ifaces = build_channel(n, spacing)
    best = float("inf")
    for _ in range(reps):
        start_sent = ch.stats.frames_sent
        t0 = time.perf_counter()
        for _ in range(rounds):
            for iface in ifaces:
                iface.send(FrameKind.BEACON, b"x" * 32)
        dt = time.perf_counter() - t0
        best = min(best, dt / (ch.stats.frames_sent - start_sent))
        sim.run_until(sim.now + 1.0)  # drain deliveries (untimed)
        ch._active_tx = []  # reset carrier-sense backlog between reps
    return best * 1e6


def bench_receivers_for(n, spacing, *, reps, rounds=6):
    """Best-of-``reps`` per-call cost of the receiver-selection path, us."""
    sim, ch, ifaces = build_channel(n, spacing)
    frames = [iface.send(FrameKind.BEACON, b"x") for iface in ifaces]
    sim.run_until(1.0)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for iface, frame in zip(ifaces, frames):
                ch._receivers_for(frame, iface)
        best = min(best, (time.perf_counter() - t0) / (rounds * n))
    return best * 1e6


def bench_end_to_end(n, spacing, *, reps, duration):
    """10 Hz staggered beaconing through the full event loop, tx/s."""
    best = float("inf")
    sent = 0
    for _ in range(reps):
        sim, ch, ifaces = build_channel(n, spacing)

        def beacon(iface):
            iface.send(FrameKind.BEACON, b"x" * 32)
            sim.schedule(0.1, beacon, iface)

        for k, iface in enumerate(ifaces):
            sim.schedule(k / n * 0.1, beacon, iface)
        t0 = time.perf_counter()
        sim.run_until(duration)
        best = min(best, time.perf_counter() - t0)
        sent = ch.stats.frames_sent
    return sent / best


def microbenchmark(n, spacing, *, reps, e2e_duration):
    return {
        "transmit_call_us": round(bench_transmit_call(n, spacing, reps=reps), 2),
        "receivers_for_us": round(bench_receivers_for(n, spacing, reps=reps), 2),
        "end_to_end_tx_per_s": round(
            bench_end_to_end(n, spacing, reps=reps, duration=e2e_duration), 0
        ),
    }


# ----------------------------------------------------------------------
# full World runs
# ----------------------------------------------------------------------
def bench_world(spacing, *, reps, duration):
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
        "mean_receivers_per_frame": round(snapshot.mean_receivers_per_frame, 2),
        "mean_candidates_per_frame": round(snapshot.mean_candidates_per_frame, 2),
    }


def _speedup(pre, post, metric):
    """pre/post for us-per-call metrics, post/pre for throughput metrics."""
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
            "comma-separated interface counts for the scaling sweep "
            "(same flag as bench_fleet.py, e.g. --ns 500,5000,50000)"
        ),
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "BENCH_channel.json"),
        help="output JSON path ('-' for stdout only)",
    )
    args = parser.parse_args(argv)

    reps = 1 if args.quick else 3
    e2e_duration = 0.25 if args.quick else 1.0
    world_duration = 4.0 if args.quick else 20.0
    scaling_ns = (500, 1000) if args.quick else (500, 1000, 2000, 4000)
    if args.ns:
        scaling_ns = tuple(int(s) for s in args.ns.split(","))
    world_spacings = (30.0,) if args.quick else (20.0, 30.0, 60.0)

    report = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "best_of": reps,
            "tx_range_m": TX_RANGE,
            "methodology": (
                "All numbers are best-of-N minima. "
                "The authoritative pre/post comparison is "
                "'pre_change_reference': alternating seed-commit (e78bade, "
                "via git worktree) vs post-change process runs on the "
                "reference machine, paired within the same load period. "
                "speedup_vs_pre_change compares this live run against that "
                "capture and inherits any cross-period load drift."
            ),
        },
        "pre_change_reference": PRE_CHANGE_REFERENCE,
    }

    # --- dense-channel microbenchmark (the acceptance scenario) --------
    dense = {
        "n_interfaces": 500,
        "spacing_m": 30.0,
        "beacon_hz": 10.0,
        "grid": microbenchmark(500, 30.0, reps=reps, e2e_duration=e2e_duration),
    }
    ref = PRE_CHANGE_REFERENCE["microbenchmarks"]["dense500"]
    dense["speedup_vs_pre_change"] = {
        m: _speedup(ref[m], dense["grid"][m], m) for m in ref
    }
    report["dense_channel_microbenchmark"] = dense

    # --- neighbor-query scaling ---------------------------------------
    scaling = {"spacing_m": 300.0, "by_n": {}}
    for n in scaling_ns:
        entry = {
            "grid": microbenchmark(n, 300.0, reps=reps, e2e_duration=e2e_duration)
        }
        ref = PRE_CHANGE_REFERENCE["microbenchmarks"].get(f"n{n}")
        if ref:
            entry["speedup_vs_pre_change"] = {
                m: _speedup(ref[m], entry["grid"][m], m) for m in ref
            }
        scaling["by_n"][str(n)] = entry
    report["neighbor_query_scaling"] = scaling

    # --- full World runs ------------------------------------------------
    worlds = {"scenario": "inter-area attacked, seed 7", "by_spacing": {}}
    for spacing in world_spacings:
        entry = {
            "grid": bench_world(spacing, reps=reps, duration=world_duration)
        }
        ref = PRE_CHANGE_REFERENCE["world_runs"].get(str(int(spacing)))
        if ref and not args.quick:
            entry["speedup_vs_pre_change"] = {
                "wall_s": _speedup(ref["wall_s"], entry["grid"]["wall_s"], "wall_s")
            }
        worlds["by_spacing"][str(int(spacing))] = entry
    report["world_runs"] = worlds

    # --- headline summary ---------------------------------------------
    ref = PRE_CHANGE_REFERENCE
    post = ref["post_change_on_reference_machine"]
    report["summary"] = {
        "headline": (
            "receiver selection is O(k) instead of O(N): on the reference "
            "machine 3.8x faster at N=2000 and 5.5x at N=4000 "
            "(16.23->4.30 us, 24.04->4.41 us); the dense 500-interface "
            "10 Hz microbenchmark runs 2.3x faster end-to-end "
            "(6051->13949 tx/s) and full World runs 1.3-1.5x faster."
        ),
        "reference_machine_speedups": {
            "receivers_for_n2000": _speedup(
                ref["microbenchmarks"]["n2000"]["receivers_for_us"],
                post["n2000"]["receivers_for_us"],
                "receivers_for_us",
            ),
            "receivers_for_n4000": _speedup(
                ref["microbenchmarks"]["n4000"]["receivers_for_us"],
                post["n4000"]["receivers_for_us"],
                "receivers_for_us",
            ),
            "dense500_end_to_end": _speedup(
                ref["microbenchmarks"]["dense500"]["end_to_end_tx_per_s"],
                post["dense500"]["end_to_end_tx_per_s"],
                "end_to_end_tx_per_s",
            ),
            "world_wall_time_20m": _speedup(
                ref["world_runs"]["20"]["wall_s"],
                post["world_runs"]["20"]["wall_s"],
                "wall_s",
            ),
        },
    }

    payload = json.dumps(report, indent=2, sort_keys=False)
    if args.out != "-":
        Path(args.out).write_text(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
