"""Validation and composition tests for fault plans."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.faults import ChurnPlan, FaultPlan, GpsFaultPlan, LinkFaultPlan


def test_default_plan_is_zero():
    plan = FaultPlan()
    assert plan.is_zero
    assert not plan.link.enabled
    assert not plan.churn.enabled
    assert not plan.gps.enabled


def test_explicit_zero_values_are_still_zero():
    plan = FaultPlan(
        link=LinkFaultPlan(loss_rate=0.0),
        churn=ChurnPlan(mean_uptime=0.0),
        gps=GpsFaultPlan(error_stddev=0.0),
    )
    assert plan.is_zero


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan.lossy(0.1),
        FaultPlan.churning(60.0),
        FaultPlan(gps=GpsFaultPlan(error_stddev=2.0)),
    ],
)
def test_any_enabled_dimension_makes_the_plan_non_zero(plan):
    assert not plan.is_zero


def test_factories_enable_exactly_one_dimension():
    lossy = FaultPlan.lossy(0.2)
    assert lossy.link.enabled and not lossy.churn.enabled
    assert lossy.link.loss_rate == 0.2
    churning = FaultPlan.churning(45.0, mean_downtime=3.0)
    assert churning.churn.enabled and not churning.link.enabled
    assert churning.churn.mean_downtime == 3.0


@pytest.mark.parametrize(
    "build, field_name",
    [
        (lambda: LinkFaultPlan(loss_rate=1.0), "link.loss_rate"),
        (lambda: LinkFaultPlan(loss_rate=-0.1), "link.loss_rate"),
        (lambda: ChurnPlan(mean_uptime=-1.0), "churn.mean_uptime"),
        (
            lambda: ChurnPlan(mean_uptime=10.0, mean_downtime=0.0),
            "churn.mean_downtime",
        ),
        (lambda: GpsFaultPlan(error_stddev=-1.0), "gps.error_stddev"),
    ],
)
def test_validation_names_the_offending_field(build, field_name):
    with pytest.raises(ConfigError, match=field_name.replace(".", r"\.")):
        build()


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)
    with pytest.raises(ValueError):
        LinkFaultPlan(loss_rate=2.0)


def test_plans_are_frozen_and_hashable():
    plan = FaultPlan.lossy(0.1)
    assert hash(plan) == hash(FaultPlan.lossy(0.1))
    assert plan != FaultPlan.lossy(0.2)
    with pytest.raises(Exception):
        plan.link = LinkFaultPlan()


def test_plan_feeds_the_store_config_hash():
    """Two configs differing only in their fault plan must never share a
    stored run."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.store import config_hash

    base = ExperimentConfig.inter_area_default(duration=10.0, seed=3)
    faulted = base.with_(faults=FaultPlan.lossy(0.05))
    assert config_hash(base) != config_hash(faulted)
    assert config_hash(faulted) == config_hash(
        base.with_(faults=FaultPlan.lossy(0.05))
    )


def _knobs(plan):
    """``(dimension.field, value)`` for every leaf of a fault plan."""
    for dimension in dataclasses.fields(plan):
        sub = getattr(plan, dimension.name)
        for f in dataclasses.fields(sub):
            yield f"{dimension.name}.{f.name}", getattr(sub, f.name)


def test_every_fault_knob_is_set_by_a_campaign_target():
    """A knob no planned run moves off its default models nothing a run
    exercises: every leaf of :class:`FaultPlan` is set by some sweep."""
    from repro.experiments import campaign

    defaults = dict(_knobs(FaultPlan()))
    exercised = {
        name
        for target in campaign.CAMPAIGN_TARGETS
        for spec in campaign.plan_target(target, runs=1, duration=10.0, seed=1)
        if spec.config is not None
        for name, value in _knobs(spec.config.faults)
        if value != defaults[name]
    }
    assert sorted(set(defaults) - exercised) == []
