"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload highway-ab --seed 1 --seconds 20 --trace 0

The workload repeats whole iterations (set-up, simulation, output checks)
until ``--seconds`` have passed and at least two rounds of its input
variants have run.  Each timing is the median over the complete rounds, in
host seconds scaled to a reference host speed by :mod:`hostspeed`; the
``meta`` line also gives the medians in host seconds.  With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced iterations and prints the per-layer metrics of
:mod:`tracing` instead, plus the tracing overhead.  ``--workload all`` runs
every workload in turn, each in a child process of its own so that its
``peak_rss_mb`` is its own.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program sources are read
from ``src/`` next to this directory; without them the run fails with
exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: End-to-end metric -> unit (see BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_rtf": "s/s",
    "runs_per_hour": "1/h",
    "peak_rss_mb": "MB",
}


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _peak_rss_mb(iterations) -> float:
    """Peak RSS of this process, or the median over iterations of the
    campaign workers' peak when that is higher.

    A process runs one workload.  A worker's peak is set mostly by the jobs
    it happened to lease, so one iteration's workers would make a noisy
    process-lifetime maximum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max(own, median(it.worker_peak_mb for it in iterations))


class Tally:
    """Operations attempted and failed: output checks and campaign jobs,
    plus the check that an iteration repeats the simulated counters of the
    first iteration of its variant."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference = {}

    def add(self, iteration, label: str) -> None:
        checks = list(iteration.checks)
        reference = self.reference.setdefault(iteration.variant, iteration.counters)
        if reference is not iteration.counters:
            diff = sorted(
                k for k in set(reference) | set(iteration.counters)
                if reference.get(k) != iteration.counters.get(k)
            )
            checks.append(("counters_repeat", not diff, f"differ: {diff}"))
        self.checks(checks, label)

    def checks(self, checks, label: str) -> None:
        for name, ok, detail in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"check failed [{label}] {name}: {detail}", file=sys.stderr)


def _iterate(workload, index):
    # Garbage left by the previous iteration is collected outside the timing.
    gc.collect()
    return workload.iterate(index)


def whole_rounds(iterations, variants):
    """The iterations of the complete rounds of variants, so that every
    variant weighs the same in a median."""
    return iterations[: len(iterations) - len(iterations) % variants]


def end_to_end(iterations) -> dict:
    """Medians over iterations."""
    n = len(iterations)
    return {
        "setup_s": (median(it.setup_s for it in iterations), n),
        "wall_s": (median(it.wall_s for it in iterations), n),
        "sim_rtf": (median(it.sim_s / it.wall_s for it in iterations), n),
        "runs_per_hour": (
            median(3600.0 * it.runs / it.wall_s for it in iterations), n
        ),
        "peak_rss_mb": (_peak_rss_mb(iterations), n),
    }


def layer_metrics(tracing, recorder, iteration) -> dict:
    """Per-layer metrics of one traced iteration (no tracing overhead yet)."""
    m = {}
    for name in tracing.span_names():
        m[f"{name}.calls"] = recorder.calls.get(name, 0)
        m[f"{name}.self_s"] = recorder.self_s.get(name, 0.0)
    counts = recorder.counts

    def ratio(num, den):
        return num / den if den else 0.0

    fired = counts.get("sim.engine.events_fired", 0)
    scheduled = counts.get("sim.engine.scheduled", 0)
    m["sim.engine.events_fired"] = fired
    m["sim.engine.scheduled"] = scheduled
    m["sim.engine.fired_per_scheduled"] = ratio(fired, scheduled)

    def extra(name):
        return sum(r.extras.get(name, 0.0) for r in iteration.results)

    sent = extra("frames_sent")
    candidates = sum(
        r.extras.get("mean_candidates_per_frame", 0.0) * r.extras.get("frames_sent", 0.0)
        for r in iteration.results
    )
    m["radio.channel.frames_sent"] = sent
    m["radio.channel.candidates_per_tx"] = ratio(candidates, sent)
    m["radio.channel.receivers_per_tx"] = ratio(extra("frames_delivered"), sent)
    pairs = counts.get("radio.shadowing.pairs", 0)
    m["radio.shadowing.pairs"] = pairs
    m["radio.shadowing.blocked_frac"] = ratio(counts.get("radio.shadowing.blocked", 0), pairs)
    selections = extra("stats_gf_selections")
    m["geonet.gf.selections"] = selections
    m["geonet.gf.no_progress_frac"] = ratio(extra("stats_gf_no_progress"), selections)
    buffered = extra("stats_cbf_buffered")
    m["geonet.cbf.buffered"] = buffered
    # The rebroadcast counter also counts originations; keep contention wins.
    won = extra("stats_cbf_rebroadcasts") - recorder.calls.get("geonet.cbf.originate", 0)
    m["geonet.cbf.rebroadcast_frac"] = ratio(won, buffered)
    m["geonet.cbf.suppressed_frac"] = ratio(
        extra("stats_cbf_suppressed_by_duplicate"), buffered
    )
    m["core.attacks.replays_sent"] = extra("replays_sent")
    m["experiments.service.empty_lease_frac"] = ratio(
        counts.get("experiments.service.empty_leases", 0),
        recorder.calls.get("experiments.service.lease", 0),
    )
    m["experiments.service.worker_idle_s"] = recorder.total_s.get(
        tracing.WORKER_SPAN, 0.0
    ) - recorder.total_s.get(tracing.EXECUTE_SPAN, 0.0)

    # Host time the iteration spent in the program, against the self time of
    # the named layer spans.  Campaign work happens in the workers.
    busy = recorder.total_s.get(tracing.WORKER_SPAN) or (
        iteration.host_setup_s + iteration.host_wall_s
    )
    named = sum(
        v for k, v in recorder.self_s.items() if k not in tracing.STRUCTURAL_SPANS
    )
    m["trace.unattributed_frac"] = ratio(max(busy - named, 0.0), busy)
    return m


def run_untraced(workload, seconds, tally):
    """Iterate for ``seconds``, and for at least two rounds of variants."""
    iterations = []
    start = time.perf_counter()
    while (
        len(iterations) < 2 * workload.variants
        or time.perf_counter() - start < seconds
    ):
        iteration = _iterate(workload, len(iterations))
        tally.add(iteration, f"iteration {len(iterations)}")
        iterations.append(iteration)
    return iterations


def run_traced(workload, seconds, tally, work_dir):
    """Alternate untraced and traced iterations; per-layer medians."""
    import tracing

    recorder = tracing.Recorder()
    recorder.dump_dir = work_dir / "spans"
    plain, traced, samples = [], [], []
    missing = set()
    start = time.perf_counter()
    # Each traced iteration follows an untraced one of the same variant, so
    # the counters-repeat check compares traced with untraced.
    while len(plain) < workload.variants or time.perf_counter() - start < seconds:
        index = len(plain)
        iteration = _iterate(workload, index)
        tally.add(iteration, f"untraced {index}")
        plain.append(iteration)

        shutil.rmtree(recorder.dump_dir, ignore_errors=True)
        recorder.dump_dir.mkdir(parents=True)
        recorder.reset()
        uninstall, not_found = tracing.install(recorder)
        try:
            iteration = _iterate(workload, index)
        finally:
            uninstall()
        missing.update(not_found)
        recorder.merge_dir(recorder.dump_dir)
        tally.add(iteration, f"traced {len(traced)}")
        traced.append(iteration)
        samples.append(layer_metrics(tracing, recorder, iteration))
    if missing:
        print(f"trace targets not found: {sorted(missing)}", file=sys.stderr)

    metrics = {name: median([s[name] for s in samples]) for name in samples[0]}
    metrics["trace.overhead_s"] = median([it.wall_s for it in traced]) - median(
        [it.wall_s for it in plain]
    )
    return metrics, plain + traced, tracing.LAYER_TARGETS


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_per_scheduled"):
        return "ratio"
    if name.endswith("_per_tx"):
        return "1/frame"
    return "count"


def run_workload(name, seed, seconds, trace, duration=None):
    """Run one workload; returns its result object (the JSON line)."""
    import workloads

    work_dir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, work_dir, duration)
    tally = Tally()
    meta = {
        "workload": name,
        "seed": seed,
        "sim_duration_s": workload.duration,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
    }
    try:
        if trace:
            values, iterations, targets = run_traced(workload, seconds, tally, work_dir)
            metrics = {
                k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()
            }
            meta["layer_targets"] = targets
            print(f"{name}: tracing overhead {values['trace.overhead_s']:.3f} s, "
                  f"unattributed {values['trace.unattributed_frac']:.1%} "
                  f"(median of traced iterations)")
        else:
            iterations = run_untraced(workload, seconds, tally)
            timed = whole_rounds(iterations, workload.variants)
            values = end_to_end(timed)
            metrics = {
                k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in values.items()
            }
            for k, (v, n) in values.items():
                print(f"{name}: {k} = {v:.6g} {END_TO_END[k]} (n={n})")
            meta["host_setup_s"] = median(it.host_setup_s for it in timed)
            meta["host_wall_s"] = median(it.host_wall_s for it in timed)
            meta["wall_s_samples"] = [round(it.wall_s, 4) for it in timed]
        meta["iterations"] = len(iterations)
        tally.checks(workload.pooled_checks(iterations), "pooled")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(f"{name}: {tally.failed} of {tally.attempted} operations failed")
    print("meta " + json.dumps(meta, sort_keys=True))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_all(args, names) -> int:
    """Each workload in a child process of its own; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(child.stdout, end="")
            print(f"perfbench: {name} exited with code {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
