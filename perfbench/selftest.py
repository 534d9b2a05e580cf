"""Self-test of the benchmark harness.

Runs every workload at tiny sim durations, untraced and traced, in this one
process.  It checks that each run emits every metric named in
``BENCHMARK.json`` with its unit, and nothing else, and that every traced
function is reached by some workload, and that the traced runs' predicted
zeros hold: layers a workload is not supposed to reach.  Run from the
root of a checkout::

    python3 perfbench/selftest.py

Exit code 0 when those checks pass.  The output checks' bands are
calibrated for the benchmark's own durations, so their failures at tiny
durations are listed but do not fail the self-test.
"""

from __future__ import annotations

import json
import sys

import run

TINY_DURATION = 3.0

#: Layer prefixes each workload must leave at zero calls.
PREDICTED_ZEROS = {
    "radio.shadowing": {"highway-ab", "cbf-flood", "campaign"},
    "geonet.fleet": {"highway-ab"},
    "experiments.checkpointing": {"highway-ab", "urban-grid", "cbf-flood"},
    "experiments.store": {"highway-ab", "urban-grid", "cbf-flood"},
    "experiments.service": {"highway-ab", "urban-grid", "cbf-flood"},
    "observability.ledger": {"highway-ab", "urban-grid", "campaign"},
}

#: Traced functions that no workload calls: only ``World.nodes_near``
#: (impact studies) queries the channel's neighbours.
UNREACHED = {"radio.channel.neighbors_within.calls"}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if not (run.SRC / "repro").is_dir():
        print(f"program sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import workloads

    problems = []
    calls_anywhere = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run.run_workload(name, 1, 0.0, bool(trace), TINY_DURATION)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            for metric in sorted(expected[trace].keys() - emitted.keys()):
                problems.append(f"{name} trace={trace}: {metric} missing")
            for metric, unit in sorted(emitted.items()):
                if expected[trace].get(metric) != unit:
                    problems.append(f"{name} trace={trace}: {metric} [{unit}] "
                                    "not in BENCHMARK.json with that unit")
            if result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: no operation attempted")
            if not trace:
                continue
            for metric, value in result["metrics"].items():
                if metric.endswith(".calls"):
                    calls_anywhere[metric] = calls_anywhere.get(metric, 0) + value["value"]
            for prefix, zero_on in PREDICTED_ZEROS.items():
                if name not in zero_on:
                    continue
                calls = sum(
                    v["value"] for k, v in result["metrics"].items()
                    if k.startswith(prefix + ".") and k.endswith(".calls")
                )
                if calls:
                    problems.append(f"prediction broken: {calls} {prefix} "
                                    f"calls on {name}")
                else:
                    print(f"prediction holds: no {prefix} calls on {name}")
    # A span no workload reaches usually means a wrapper missed its target.
    for metric, calls in sorted(calls_anywhere.items()):
        if not calls and metric not in UNREACHED:
            problems.append(f"{metric} is zero on every workload")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"selftest: {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
