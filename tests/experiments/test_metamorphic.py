"""Metamorphic oracles: relations between runs that hold without goldens.

A golden digest pins behaviour but cannot say it is right, and it must be
re-captured whenever a path changes on purpose.  The relations here hold
for any correct simulator, so they survive such re-pins.
"""

from __future__ import annotations

import dataclasses
import enum
import json

import pytest

from repro.experiments.config import ATTACK_VARIANTS, AttackConfig, ExperimentConfig
from repro.experiments.runner import run_single
from repro.experiments.store import RunKey, canonical_json, run_result_to_dict
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


#: Knobs an attacked world reads under one variant only; each is changed
#: together with its variant.
_VARIANT_OF = {
    "n_masts": "coordinated",
    "mobile_speed": "mobile",
    "mobile_update_interval": "mobile",
    "adaptive_max_replays_per_window": "adaptive",
    "adaptive_window": "adaptive",
    "adaptive_cooldown": "adaptive",
}

#: The attack fields an attack-free world reads: they place the paired
#: workload (``VulnerabilityModel``).
_WORKLOAD_FIELDS = {"x", "attack_range"}


def _changed_value(name, value):
    """A valid value for ``AttackConfig.<name>`` other than ``value``."""
    if name == "variant":
        return next(v for v in ATTACK_VARIANTS if v != value)
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member is not value)
    if isinstance(value, bool):
        return not value
    if value is None:
        return 1000.0
    return value * 2


def _change(attack, name):
    """The changes that move ``AttackConfig.<name>`` off ``attack``'s value."""
    changes = {name: _changed_value(name, getattr(attack, name))}
    if name in _VARIANT_OF:
        changes = {"variant": _VARIANT_OF[name], **changes}
    return changes


_DEFAULT_ATTACK = ExperimentConfig.inter_area_default().attack
_BEHAVIOUR_CHANGES = [
    _change(_DEFAULT_ATTACK, f.name)
    for f in dataclasses.fields(AttackConfig)
    if f.name not in _WORKLOAD_FIELDS
]


@pytest.mark.parametrize(
    "changes", _BEHAVIOUR_CHANGES, ids=lambda changes: "+".join(changes)
)
def test_attack_free_record_ignores_the_attacker_behaviour(
    default_attack_free, changes
):
    """With no attacker in the world, nothing but where the attacker would
    stand and how far it reaches can shape the run: the record is
    byte-identical under any change to the attacker's behaviour, one
    ``AttackConfig`` field at a time (a variant's own knob together with
    its variant)."""
    attack, expected = default_attack_free
    changed = dataclasses.replace(attack, **changes)
    assert _attack_free_record(changed) == expected


def test_attack_free_record_follows_the_attack_range(default_attack_free):
    """The control: the attack range selects the paired workload, so a
    changed range changes the attack-free record too."""
    attack, expected = default_attack_free
    changed = dataclasses.replace(attack, attack_range=300.0)
    assert _attack_free_record(changed) != expected


def test_attack_free_record_follows_the_attacker_x(default_attack_free):
    """The second control: the attacker's x places the paired workload."""
    attack, expected = default_attack_free
    changed = dataclasses.replace(attack, x=1000.0)
    assert _attack_free_record(changed) != expected


def test_attack_free_key_moves_under_exactly_x_and_attack_range():
    """The store keys an attack-free run by the fields its world reads, so
    targets that differ only in their attack share its record; an attacked
    run's key moves under every field."""
    config = ExperimentConfig.inter_area_default(duration=10.0, seed=3)

    def keys(attack):
        changed = config.with_(attack=attack)
        return (
            RunKey.for_config(changed, seed=3, attacked=False),
            RunKey.for_config(changed, seed=3, attacked=True),
        )

    base_af, base_atk = keys(config.attack)
    moved_af = set()
    for f in dataclasses.fields(AttackConfig):
        attack = dataclasses.replace(config.attack, **_change(config.attack, f.name))
        af, atk = keys(attack)
        assert atk != base_atk, f.name
        if af != base_af:
            moved_af.add(f.name)
    assert moved_af == _WORKLOAD_FIELDS
