"""Metamorphic oracles: relations between runs that hold without goldens.

A golden digest pins behaviour but cannot say it is right, and it must be
re-captured whenever a path changes on purpose.  The relations here hold
for any correct simulator, so they survive such re-pins.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from tests.experiments._golden_capture import outcome_digest


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["inter-area", "intra-area"])
def test_attacker_that_reaches_nobody_equals_no_attacker(workload):
    """An attacker whose 1 m link range reaches no vehicle hears nothing and
    so replays nothing; its attacked run must equal the attack-free twin
    outcome for outcome."""
    make = (
        ExperimentConfig.inter_area_default
        if workload == "inter-area"
        else ExperimentConfig.intra_area_default
    )
    config = make(duration=20.0, seed=7)
    config = config.with_(
        attack=dataclasses.replace(config.attack, attack_range=1.0)
    )
    attack_free = run_single(config, attacked=False)
    attacked = run_single(config, attacked=True)
    assert attacked.extras["frames_sniffed"] == 0
    assert attacked.extras["replays_sent"] == 0
    assert attacked.n_packets == attack_free.n_packets > 0
    assert outcome_digest(attacked) == outcome_digest(attack_free)
