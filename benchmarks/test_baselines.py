"""Baseline and robustness benchmarks beyond the paper's figures."""


from repro.experiments import ExperimentConfig, run_ab
from repro.faults import FaultPlan


def test_channel_loss_robustness(benchmark, bench_scale):
    """Both attacks keep working on a lossy (non-ideal) channel — the
    paper's unit-disk model is not load-bearing for the conclusion.  The
    loss is the fault layer's i.i.d. link loss (``FaultPlan.lossy``)."""

    def sweep():
        results = {}
        for loss in (0.0, 0.1):
            inter = ExperimentConfig.inter_area_default(
                duration=bench_scale["duration"],
                seed=bench_scale["seed"],
                attack_range=486.0,
            ).with_(faults=FaultPlan.lossy(loss))
            intra = ExperimentConfig.intra_area_default(
                duration=bench_scale["duration"], seed=bench_scale["seed"]
            ).with_(faults=FaultPlan.lossy(loss))
            results[loss] = (
                run_ab(inter, runs=bench_scale["runs"]).drop_rate(),
                run_ab(intra, runs=bench_scale["runs"]).drop_rate(),
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for loss, (gamma, lam) in results.items():
        benchmark.extra_info[f"loss={loss} inter γ"] = (
            None if gamma is None else round(gamma, 4)
        )
        benchmark.extra_info[f"loss={loss} intra λ"] = (
            None if lam is None else round(lam, 4)
        )
    # The attacks keep working on the lossy channel: the interception
    # attack stays strong and blockage stays visible.
    gamma_lossy, lam_lossy = results[0.1]
    assert gamma_lossy is not None and gamma_lossy > 0.3
    assert lam_lossy is not None and lam_lossy > 0.05


def test_blackhole_baseline_comparison(benchmark, bench_scale):
    """Quantify the related-work contrast: the insider blackhole attracts
    and drops traffic, while the same device without credentials is inert
    (which is why the paper's replay attacks matter)."""
    from repro.core.attacks.blackhole import InsiderBlackhole, OutsiderBlackhole
    from repro.experiments.world import World
    from repro.geo.position import Position

    def run_with(attacker_cls):
        config = ExperimentConfig.inter_area_default(
            duration=bench_scale["duration"], seed=bench_scale["seed"]
        )
        world = World(config, attacked=False, seed=bench_scale["seed"])
        kwargs = dict(
            sim=world.sim,
            channel=world.channel,
            streams=world.streams,
            position=Position(2000.0, -10.0),
            advertised_position=Position(2450.0, 5.0),
            tx_range=486.0,
        )
        if attacker_cls is InsiderBlackhole:
            kwargs["credentials"] = world.ca.enroll("compromised")
        attacker = attacker_cls(**kwargs)
        metrics = world.run()
        rate = metrics.overall_rate()
        return rate, attacker.packets_attracted

    def compare():
        baseline_config = ExperimentConfig.inter_area_default(
            duration=bench_scale["duration"], seed=bench_scale["seed"]
        )
        baseline = run_ab(baseline_config, runs=1).af_overall
        insider_rate, insider_attracted = run_with(InsiderBlackhole)
        outsider_rate, outsider_attracted = run_with(OutsiderBlackhole)
        return {
            "attack_free": baseline,
            "insider_rate": insider_rate,
            "insider_attracted": insider_attracted,
            "outsider_rate": outsider_rate,
            "outsider_attracted": outsider_attracted,
        }

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {k: round(v, 4) if isinstance(v, float) else v for k, v in results.items()}
    )
    # The insider swallows traffic; the outsider forger attracts nothing.
    assert results["insider_attracted"] > 0
    assert results["outsider_attracted"] == 0
    assert results["insider_rate"] < results["attack_free"]
