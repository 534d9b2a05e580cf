"""Smoke test for the perf harness (run with ``pytest -m perf``).

Excluded from tier-1 (the default test paths don't collect ``benchmarks/``
and the ``perf`` marker keeps it opt-in even when this directory is given
explicitly).  Asserts the harness's --quick mode finishes fast and emits
well-formed JSON — it does not assert any speedup, since CI machines vary.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[2]
HARNESS = Path(__file__).parent / "bench_channel.py"
FLEET_HARNESS = Path(__file__).parent / "bench_fleet.py"


def test_quick_harness_emits_valid_json_under_30s(tmp_path):
    out_path = tmp_path / "bench.json"
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HARNESS), "--quick", "--out", str(out_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 30.0, f"--quick harness took {elapsed:.1f}s"

    report = json.loads(out_path.read_text())
    assert report == json.loads(proc.stdout)  # stdout mirrors the file
    assert report["meta"]["mode"] == "quick"
    for section in (
        "pre_change_reference",
        "dense_channel_microbenchmark",
        "neighbor_query_scaling",
        "world_runs",
        "summary",
    ):
        assert section in report, f"missing section {section}"

    dense = report["dense_channel_microbenchmark"]
    for metric in (
        "transmit_call_us",
        "receivers_for_us",
        "end_to_end_tx_per_s",
    ):
        assert dense["grid"][metric] > 0

    for entry in report["world_runs"]["by_spacing"].values():
        assert entry["grid"]["frames_sent"] > 0


def test_quick_fleet_harness_emits_valid_json_under_60s(tmp_path):
    out_path = tmp_path / "bench_fleet.json"
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(FLEET_HARNESS), "--quick", "--out", str(out_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0, f"--quick fleet harness took {elapsed:.1f}s"

    report = json.loads(out_path.read_text())
    assert report["meta"]["mode"] == "quick"
    for section in (
        "dense_fleet_microbenchmark",
        "fleet_beacon_scaling",
        "mobility_step_scaling",
        "world_runs",
        "world_scale_run",
        "summary",
    ):
        assert section in report, f"missing section {section}"

    dense = report["dense_fleet_microbenchmark"]
    assert dense["fleet_batched"]["end_to_end_tx_per_s"] > 0
    assert dense["channel_grid_live"]["end_to_end_tx_per_s"] > 0
    # Budget keyed off the checked-in BENCH_channel.json grid capture:
    # the measured ratio is ~6x on the reference machine; 2x leaves
    # generous headroom for slower/noisier CI machines while still
    # catching a batched path that regressed to per-object speed.
    ref = report.get("dense_fleet_microbenchmark", {}).get(
        "channel_grid_reference"
    )
    if ref is not None:
        assert (
            dense["fleet_batched"]["end_to_end_tx_per_s"]
            >= 2.0 * ref["end_to_end_tx_per_s"]
        ), "batched beacon loop lost its edge over the per-interface path"

    # Obstruction fallback guard: with a Manhattan shadowing model
    # registered, every delivery sweep routes through the vectorised
    # Channel.block_mask path.  Compared within the same run (machine
    # drift cancels out), the obstructed dense-500 loop must keep at
    # least half the clear-channel throughput — i.e. the urban scenario
    # pack must not regress the BENCH_fleet.json dense-500 scenario by
    # more than 2x.
    obstructed = dense["fleet_batched_obstructed"]
    assert obstructed["end_to_end_tx_per_s"] > 0
    assert obstructed["beacons_sent"] > 0
    assert (
        obstructed["end_to_end_tx_per_s"]
        >= 0.5 * dense["fleet_batched"]["end_to_end_tx_per_s"]
    ), "obstruction fallback regressed the dense-500 beacon loop by >2x"

    for entry in report["fleet_beacon_scaling"]["by_n"].values():
        assert entry["beacons_sent"] > 0
        assert entry["end_to_end_tx_per_s"] > 0
    for entry in report["mobility_step_scaling"]["by_n"].values():
        assert entry["batched"]["n_vehicles"] > 0
        assert entry["batched"]["step_us"] > 0

    assert report["world_runs"]["batched"]["frames_sent"] > 0
    scale = report["world_scale_run"]
    assert scale["n_nodes"] > 1000
    assert scale["beacons_sent"] > 0
