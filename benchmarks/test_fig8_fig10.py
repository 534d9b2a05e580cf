"""Fig 8 / Fig 10 benchmarks: accumulated drop rates over time."""

from conftest import record_series

from repro.experiments.figures import fig8, fig10


def _kw(bench_scale):
    return dict(
        runs=bench_scale["runs"],
        duration=bench_scale["duration"],
        seed=bench_scale["seed"],
    )


def test_fig8(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: fig8.figure8(**_kw(bench_scale)), rounds=1, iterations=1
    )
    record_series(benchmark, result)
    labels = [series.label for series in result.series]
    assert labels == [
        "mL_dflt",
        "mN_dflt",
        "wN_dflt",
        "wN_ttl10",
        "wN_ttl5",
        "wN_i100",
        "wN_i300",
        "wN_2dir",
    ]
    # Cumulative series exist for every scenario and end near the overall γ.
    for series in result.series:
        cumulative = series.result.cumulative_drops()
        assert len(cumulative) == series.result.config.n_bins
    # The mL attacker ends with (near-)total interception.
    assert result.get("mL_dflt").drop > 0.9


def test_fig10(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: fig10.figure10(**_kw(bench_scale)), rounds=1, iterations=1
    )
    record_series(benchmark, result)
    assert [series.label for series in result.series] == [
        "wN_dflt",
        "mN_dflt",
        "mL_dflt",
        "mN_ttl5",
        "mN_i100",
        "mN_i300",
        "mN_2dir",
    ]
    # "The attack coverage is the only factor impacting the attack
    # effectiveness": the mN variants cluster together...
    mn_drops = [
        result.get(label).drop
        for label in ("mN_dflt", "mN_ttl5", "mN_i100", "mN_2dir")
    ]
    assert max(mn_drops) - min(mn_drops) < 0.25
    # ...and increasing the range to mL does not increase blockage.
    assert result.get("mL_dflt").drop <= result.get("mN_dflt").drop + 0.05
