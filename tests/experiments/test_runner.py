"""Tests for the A/B runner."""

import dataclasses

import pytest

from repro.experiments.config import AttackKind, ExperimentConfig
from repro.experiments.runner import run_ab, run_single


def tiny_config(kind="intra"):
    factory = (
        ExperimentConfig.intra_area_default
        if kind == "intra"
        else ExperimentConfig.inter_area_default
    )
    config = factory(duration=8.0, seed=11)
    return config.with_(road=dataclasses.replace(config.road, length=1200.0))


def test_run_single_produces_metrics():
    result = run_single(tiny_config(), attacked=False)
    assert result.n_packets > 0
    assert 0.0 <= result.overall_rate <= 1.0
    assert result.binned.n_bins == 2
    assert result.extras["frames_sent"] > 0


def test_run_single_attacked_reports_attacker_extras():
    result = run_single(tiny_config(), attacked=True)
    assert "replays_sent" in result.extras
    assert "frames_sniffed" in result.extras


def test_run_ab_pairs_seeds():
    ab = run_ab(tiny_config(), runs=2)
    assert len(ab.af_runs) == 2
    assert len(ab.atk_runs) == 2
    assert [r.seed for r in ab.af_runs] == [r.seed for r in ab.atk_runs]


def test_run_ab_skips_attacked_runs_when_attack_none():
    config = tiny_config()
    config = config.with_(
        attack=dataclasses.replace(config.attack, kind=AttackKind.NONE)
    )
    ab = run_ab(config, runs=2)
    assert len(ab.af_runs) == 2
    assert ab.atk_runs == []


def test_ab_result_aggregates():
    ab = run_ab(tiny_config(), runs=2)
    assert 0.0 <= ab.af_overall <= 1.0
    assert 0.0 <= ab.atk_overall <= 1.0
    assert len(ab.af_bin_rates) == 2
    drop = ab.drop_rate()
    assert drop is None or -1.0 <= drop <= 1.0


def test_ab_result_summary_is_readable():
    ab = run_ab(tiny_config(), runs=1)
    text = ab.summary()
    assert "af=" in text and "atk=" in text


def test_invalid_runs_rejected():
    with pytest.raises(ValueError):
        run_ab(tiny_config(), runs=0)


def test_cumulative_drops_length_matches_bins():
    ab = run_ab(tiny_config(), runs=1)
    assert len(ab.cumulative_drops()) == len(ab.af_bin_rates)
