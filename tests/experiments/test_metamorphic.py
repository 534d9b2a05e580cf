"""Metamorphic oracles: relations between runs that hold without goldens.

A golden digest pins behaviour but cannot say it is right, and it must be
re-captured whenever a path changes on purpose.  The relations here hold
for any correct simulator, so they survive such re-pins.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.config import AttackKind, ExperimentConfig
from repro.experiments.runner import run_single
from repro.experiments.store import canonical_json, run_result_to_dict
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


def _attack_free_record(attack) -> str:
    """An attack-free run's stored record as bytes, wall-clock masked."""
    config = ExperimentConfig.inter_area_default(duration=10.0, seed=3)
    result = run_single(config.with_(attack=attack), attacked=False)
    data = run_result_to_dict(result)
    for counter in ("wall_time_s", "events_per_wall_sec"):
        assert counter in data["extras"]
        data["extras"][counter] = 0.0
    return canonical_json(data)


@pytest.fixture(scope="module")
def default_attack_free():
    attack = ExperimentConfig.inter_area_default().attack
    record = _attack_free_record(attack)
    assert json.loads(record)["n_packets"] > 0
    return attack, record


@pytest.mark.parametrize(
    "changes",
    [
        {"kind": AttackKind.NONE},
        {"variant": "coordinated", "n_masts": 5},
        {
            "variant": "mobile",
            "mobile_speed": 20.0,
            "mobile_update_interval": 0.25,
        },
        {
            "variant": "adaptive",
            "adaptive_max_replays_per_window": 1.0,
            "adaptive_window": 3.0,
            "adaptive_cooldown": 2.0,
        },
        {"reaction_delay": 0.002},
        {"y_offset": -25.0},
        {"rewrite_rhl": False},
        {"replay_range": 50.0},
    ],
    ids=lambda changes: "+".join(changes),
)
def test_attack_free_record_ignores_the_attacker_behaviour(
    default_attack_free, changes
):
    """With no attacker in the world, nothing but where the attacker would
    stand and how far it reaches can shape the run: the record is
    byte-identical under any change to the attacker's behaviour."""
    attack, expected = default_attack_free
    changed = dataclasses.replace(attack, **changes)
    assert _attack_free_record(changed) == expected


def test_attack_free_record_follows_the_attack_range(default_attack_free):
    """The control: the attack range selects the paired workload, so a
    changed range changes the attack-free record too."""
    attack, expected = default_attack_free
    changed = dataclasses.replace(attack, attack_range=300.0)
    assert _attack_free_record(changed) != expected
