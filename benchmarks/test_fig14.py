"""Fig 14 benchmarks: mitigation effectiveness.

Paper reference: (a) the plausibility check recovers +53.7/+61.6/+53.4
reception points against wN/mN/mL attackers and lifts the attack-free
baseline from ~54 % to 94.3 %; (b) the RHL check restores attack-free
reception under wN/mN blockage attackers.
"""

from repro.experiments.figures import fig14


def _kw(bench_scale):
    return dict(
        runs=bench_scale["runs"],
        duration=bench_scale["duration"],
        seed=bench_scale["seed"],
    )


def _record(benchmark, figure):
    for series in figure.series:
        benchmark.extra_info[f"{series.label} unmitigated atk"] = round(
            series.unmitigated.atk_overall, 4
        )
        benchmark.extra_info[f"{series.label} mitigated atk"] = round(
            series.mitigated.atk_overall, 4
        )
        benchmark.extra_info[f"{series.label} improvement"] = round(
            series.improvement, 4
        )


def test_fig14a(benchmark, bench_scale):
    figure = benchmark.pedantic(
        lambda: fig14.fig14a(**_kw(bench_scale)), rounds=1, iterations=1
    )
    _record(benchmark, figure)
    for series in figure.series:
        # The check recovers a large share of the lost reception...
        assert series.improvement > 0.2
    # ...and beats the unmitigated attack-free baseline even while attacked
    # (the paper's headline observation about stale-entry filtering).
    mn = figure.get("mN")
    assert mn.mitigated.af_overall > mn.unmitigated.af_overall


def test_fig14b(benchmark, bench_scale):
    figure = benchmark.pedantic(
        lambda: fig14.fig14b(**_kw(bench_scale)), rounds=1, iterations=1
    )
    _record(benchmark, figure)
    for series in figure.series:
        # The RHL check restores reception to near the attack-free level.
        assert (
            series.mitigated.atk_overall
            >= series.unmitigated.af_overall - 0.1
        )
