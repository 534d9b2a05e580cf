"""CI perf-regression gate against the checked-in BENCH baselines.

Complements ``test_perf_smoke.py`` (which asserts the harnesses *work*):
this module asserts the code is still *fast*, by re-measuring the headline
microbenchmarks in-process and comparing them against the committed
``BENCH_channel.json`` / ``BENCH_fleet.json`` reference captures using the
ratcheted tolerances in ``PERF_BUDGETS.json``.

The tolerances are deliberately generous multiples of the reference
machine's numbers (see the budget file's ``meta.ratchet`` note): shared CI
runners are slower and noisier, so the gate is tuned to catch
order-of-magnitude regressions — the spatial grid degenerating to a linear
scan, the batched fleet tick falling back to per-object dispatch — without
flapping on machine variance.  Tighten a ratio when a PR makes the code
faster; never loosen one without re-capturing the baselines.

The checkpoint-overhead gate is different: it compares two measurements
from the *same process* (snapshot cost vs. simulation wall per default
checkpoint interval), so machine drift cancels out and the ISSUE's hard
"<= 5% wall overhead on dense-500" budget can be asserted directly.

Run with ``pytest benchmarks/perf -m perf`` (excluded from tier-1).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

PERF_DIR = Path(__file__).parent
if str(PERF_DIR) not in sys.path:  # the harnesses are scripts, not a package
    sys.path.insert(0, str(PERF_DIR))

import bench_channel  # noqa: E402
import bench_fleet  # noqa: E402

BUDGETS = json.loads((PERF_DIR / "PERF_BUDGETS.json").read_text())
CHANNEL_BASE = json.loads((PERF_DIR / "BENCH_channel.json").read_text())
FLEET_BASE = json.loads((PERF_DIR / "BENCH_fleet.json").read_text())


def test_channel_dense500_end_to_end_vs_baseline():
    """Dense-500 grid throughput must stay within budget of the capture."""
    budget = BUDGETS["channel"]
    reference = CHANNEL_BASE["dense_channel_microbenchmark"]["grid"][
        "end_to_end_tx_per_s"
    ]
    measured = bench_channel.bench_end_to_end(500, 30.0, reps=2, duration=0.25)
    floor = budget["dense500_end_to_end_min_ratio"] * reference
    assert measured >= floor, (
        f"dense-500 end-to-end throughput regressed: {measured:.0f} tx/s "
        f"vs reference {reference:.0f} (floor {floor:.0f}; ratchet in "
        "PERF_BUDGETS.json)"
    )


def test_channel_receiver_selection_scaling_vs_baseline():
    """O(k) receiver selection at N=2000 must not drift toward O(N)."""
    budget = BUDGETS["channel"]
    reference = CHANNEL_BASE["neighbor_query_scaling"]["by_n"]["2000"][
        "grid"
    ]["receivers_for_us"]
    measured = bench_channel.bench_receivers_for(2000, 300.0, reps=2)
    ceiling = budget["receivers_for_n2000_max_ratio"] * reference
    assert measured <= ceiling, (
        f"receiver selection at N=2000 regressed: {measured:.2f} us/call "
        f"vs reference {reference:.2f} (ceiling {ceiling:.2f}; ratchet in "
        "PERF_BUDGETS.json)"
    )


def test_fleet_dense500_batched_vs_baseline():
    """The batched beacon tick must keep its edge over per-object speed."""
    budget = BUDGETS["fleet"]
    reference = FLEET_BASE["dense_fleet_microbenchmark"]["fleet_batched"][
        "end_to_end_tx_per_s"
    ]
    measured = bench_fleet.bench_fleet_end_to_end(
        500, 30.0, reps=2, duration=1.0
    )["end_to_end_tx_per_s"]
    floor = budget["dense500_batched_end_to_end_min_ratio"] * reference
    assert measured >= floor, (
        f"dense-500 batched beacon throughput regressed: {measured:.0f} "
        f"tx/s vs reference {reference:.0f} (floor {floor:.0f}; ratchet "
        "in PERF_BUDGETS.json)"
    )


def test_fleet_mobility_step_vs_baseline():
    """Batched mobility stepping must stay near the capture's per-step cost."""
    budget = BUDGETS["fleet"]
    reference = FLEET_BASE["mobility_step_scaling"]["by_n"]["500"][
        "batched"
    ]["step_us"]
    measured = bench_fleet.bench_mobility(500, reps=2, steps=20)["step_us"]
    ceiling = budget["mobility_step_n500_max_ratio"] * reference
    assert measured <= ceiling, (
        f"batched mobility step at N=500 regressed: {measured:.1f} us "
        f"vs reference {reference:.1f} (ceiling {ceiling:.1f}; ratchet in "
        "PERF_BUDGETS.json)"
    )


def test_checkpoint_overhead_at_default_interval(tmp_path):
    """Checkpointing at the default interval costs <=5% wall on dense-500.

    Both sides of the ratio come from this process — the wall time of one
    default checkpoint interval of the dense (20 m spacing) inter-area
    world, and the best-of-N cost of snapshotting + persisting it — so the
    assertion is immune to runner speed, unlike the baseline-relative
    gates above.
    """
    from repro.experiments.campaign import config_hash
    from repro.experiments.checkpointing import (
        DEFAULT_CHECKPOINT_INTERVAL,
        save_checkpoint,
    )
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.sqlite_store import SqliteResultStore
    from repro.experiments.store import RunKey
    from repro.experiments.world import World

    interval = DEFAULT_CHECKPOINT_INTERVAL
    config = ExperimentConfig.inter_area_default(
        duration=interval + 10.0, seed=7
    )
    config = replace(
        config, road=replace(config.road, inter_vehicle_space=20.0)
    )
    t0 = time.perf_counter()
    world = World(config, attacked=True, seed=7)
    world.run(duration=interval)
    wall_per_interval = time.perf_counter() - t0

    store = SqliteResultStore(tmp_path / "results.sqlite")
    key = RunKey(
        target="perf-gate",
        config_hash=config_hash(config),
        seed=7,
        attacked=True,
    )
    save_cost = float("inf")
    for _ in range(4):
        t0 = time.perf_counter()
        save_checkpoint(store, key, world)
        save_cost = min(save_cost, time.perf_counter() - t0)

    overhead = save_cost / wall_per_interval
    ceiling = BUDGETS["checkpoint"]["max_overhead_at_default_interval"]
    assert overhead <= ceiling, (
        f"checkpointing costs {overhead:.1%} of wall per "
        f"{interval:.0f} sim-s interval on dense-500 "
        f"(save {save_cost:.3f}s / interval wall {wall_per_interval:.3f}s); "
        f"budget is {ceiling:.0%}"
    )
