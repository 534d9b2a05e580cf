"""Ablation benchmarks for the design choices DESIGN.md calls out.

These are not paper figures; they probe how sensitive the reproduction is
to the modelling knobs the paper leaves implicit.
"""

import dataclasses

from repro.experiments import ExperimentConfig, run_ab


def _kw(bench_scale):
    return dict(runs=bench_scale["runs"])


def _duration(bench_scale):
    return bench_scale["duration"]


def test_attacker_reaction_delay(benchmark, bench_scale):
    """The paper argues <=1 ms suffices; CBF timers leave ~60 ms of slack,
    so blockage should be flat across reaction delays up to ~20 ms."""

    def sweep():
        results = {}
        for delay in (0.0005, 0.005, 0.02):
            base = ExperimentConfig.intra_area_default(
                duration=_duration(bench_scale), seed=bench_scale["seed"]
            )
            config = base.with_(
                attack=dataclasses.replace(base.attack, reaction_delay=delay)
            )
            results[delay] = run_ab(config, **_kw(bench_scale)).drop_rate()
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info.update({f"delay={k}s": round(v, 4) for k, v in results.items()})
    drops = list(results.values())
    assert max(drops) - min(drops) < 0.2


def test_cbf_timer_bounds(benchmark, bench_scale):
    """Blockage holds across CBF contention-window choices — the attack
    beats any timer because it reacts in ~1 ms."""

    def sweep():
        results = {}
        for to_max in (0.05, 0.1, 0.2):
            base = ExperimentConfig.intra_area_default(
                duration=_duration(bench_scale), seed=bench_scale["seed"]
            )
            config = base.with_(
                geonet=dataclasses.replace(base.geonet, to_max=to_max)
            )
            results[to_max] = run_ab(config, **_kw(bench_scale)).drop_rate()
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {f"to_max={k}s": round(v, 4) for k, v in results.items()}
    )
    assert all(v > 0.1 for v in results.values())


def test_gf_recheck_interval(benchmark, bench_scale):
    """The hold-and-recheck cadence barely moves attack-free reception on
    the default dense road (neighbors are almost always available)."""

    def sweep():
        results = {}
        for interval in (0.25, 0.5, 1.0):
            base = ExperimentConfig.inter_area_default(
                duration=_duration(bench_scale), seed=bench_scale["seed"]
            )
            config = base.with_(
                geonet=dataclasses.replace(
                    base.geonet, gf_recheck_interval=interval
                )
            )
            results[interval] = run_ab(config, **_kw(bench_scale)).af_overall
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {f"recheck={k}s": round(v, 4) for k, v in results.items()}
    )
    values = list(results.values())
    assert max(values) - min(values) < 0.25


def test_plausibility_threshold(benchmark, bench_scale):
    """Sweep the §V-A threshold around the 486 m default: tighter keeps
    blocking the attack; much looser lets poisoned entries back in."""

    def sweep():
        results = {}
        for threshold in (350.0, 486.0, 900.0):
            base = ExperimentConfig.inter_area_default(
                duration=_duration(bench_scale), seed=bench_scale["seed"]
            )
            config = base.with_(
                geonet=dataclasses.replace(
                    base.geonet,
                    plausibility_check=True,
                    plausibility_threshold=threshold,
                ),
                attack=dataclasses.replace(base.attack, attack_range=486.0),
            )
            results[threshold] = run_ab(config, **_kw(bench_scale)).atk_overall
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {f"threshold={k}m": round(v, 4) for k, v in results.items()}
    )
    # A threshold at the radio range keeps reception healthy under attack;
    # a threshold way beyond it readmits unreachable picks.
    assert results[486.0] > results[900.0]


def test_rhl_threshold(benchmark, bench_scale):
    """Sweep the §V-B drop threshold: any small value defeats the RHL=1
    rewrite; a huge value degenerates to unmitigated CBF."""

    def sweep():
        results = {}
        for threshold in (1, 3, 20):
            base = ExperimentConfig.intra_area_default(
                duration=_duration(bench_scale), seed=bench_scale["seed"]
            )
            config = base.with_(
                geonet=dataclasses.replace(
                    base.geonet, rhl_check=True, rhl_drop_threshold=threshold
                )
            )
            results[threshold] = run_ab(config, **_kw(bench_scale)).atk_overall
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {f"threshold={k}": round(v, 4) for k, v in results.items()}
    )
    assert results[3] > results[20]


def test_loct_extrapolation(benchmark, bench_scale):
    """GF with vs without LocTE PV extrapolation (EN 302 636-4-1 keeps PVs
    current; the flag quantifies how much that choice shapes the baseline
    and the attack)."""

    def sweep():
        results = {}
        for flag in (True, False):
            base = ExperimentConfig.inter_area_default(
                duration=_duration(bench_scale), seed=bench_scale["seed"]
            )
            config = base.with_(
                geonet=dataclasses.replace(base.geonet, loct_extrapolation=flag)
            )
            ab = run_ab(config, **_kw(bench_scale))
            results[flag] = (ab.af_overall, ab.drop_rate())
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for flag, (af, drop) in results.items():
        benchmark.extra_info[f"extrapolation={flag} af"] = round(af, 4)
        benchmark.extra_info[f"extrapolation={flag} drop"] = round(drop, 4)
    # Both variants leave the attack effective.
    assert all(drop > 0.1 for _af, drop in results.values())
