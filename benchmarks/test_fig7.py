"""Fig 7 benchmarks: inter-area interception effectiveness panels.

Paper reference values (γ, 100 runs x 200 s): (a) DSRC wN/mN/mL =
46.8/~98/99.9 %, (b) C-V2X wN/mL = 35.2/100 %, (c) TTL 20/10/5 s =
46.8/46.2/37.4 %, (d) density-insensitive, (e) two-direction 58.3 %.
"""

from conftest import record_series

from repro.experiments.figures import fig7


def _kw(bench_scale):
    return dict(
        runs=bench_scale["runs"],
        duration=bench_scale["duration"],
        seed=bench_scale["seed"],
    )


def test_fig7a(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: fig7.fig7a(**_kw(bench_scale)), rounds=1, iterations=1
    )
    record_series(benchmark, result)
    # Shape: the mN/mL attackers intercept essentially everything.
    assert result.get("mN").result.atk_overall <= 0.1
    assert result.get("mL").result.atk_overall <= 0.1
    # And the attack always hurts relative to attack-free.
    for series in result.series:
        assert series.result.atk_overall < series.result.af_overall


def test_fig7b(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: fig7.fig7b(**_kw(bench_scale)), rounds=1, iterations=1
    )
    record_series(benchmark, result)
    assert result.get("mL").result.atk_overall <= 0.1


def test_fig7c(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: fig7.fig7c(**_kw(bench_scale)), rounds=1, iterations=1
    )
    record_series(benchmark, result)
    # The mN attacker stays near-total even at the shortest TTL (97.9 %).
    assert result.get("ttl=5s,mN").result.atk_overall <= 0.1


def test_fig7d(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: fig7.fig7d(**_kw(bench_scale)), rounds=1, iterations=1
    )
    record_series(benchmark, result)
    # Density-insensitive: the attack bites at every spacing.
    for series in result.series:
        assert series.result.atk_overall < series.result.af_overall


def test_fig7e(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: fig7.fig7e(**_kw(bench_scale)), rounds=1, iterations=1
    )
    record_series(benchmark, result)
    one_dir = result.get("1 direction(s)").result
    two_dir = result.get("2 direction(s)").result
    # GF's baseline is less efficient on two-direction roads (paper §IV-A).
    assert two_dir.af_overall < one_dir.af_overall
