"""End-to-end fault-injection runs through the experiment World.

The two contracts under test:

* **bit-identity** — a zero fault plan changes *nothing*: same digests,
  same frame counts, same RNG draw sequence as a plan-less run;
* **conservation** — under link loss and churn, the packet ledger still
  assigns every originated packet exactly one terminal outcome, with the
  new ``faulted-link-loss`` / ``node-down`` reasons absorbing the faults.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.faults import ChurnPlan, FaultPlan, LinkFaultPlan
from repro.observability import PacketLedger, reasons
from tests.experiments._golden_capture import outcome_digest

FAULT_PLAN = FaultPlan(
    link=LinkFaultPlan(loss_rate=0.1),
    churn=ChurnPlan(mean_uptime=30.0, mean_downtime=5.0),
)


def _fingerprint(result):
    return (
        outcome_digest(result),
        result.n_packets,
        result.overall_rate,
        int(result.extras["frames_sent"]),
        int(result.extras["frames_delivered"]),
        int(result.extras["unicast_lost"]),
    )


def test_zero_fault_plan_is_bit_identical_to_no_plan():
    config = ExperimentConfig.inter_area_default(duration=12.0, seed=5)
    plain = run_single(config, attacked=True)
    zeroed = run_single(config.with_(faults=FaultPlan()), attacked=True)
    explicit = run_single(
        config.with_(
            faults=FaultPlan(link=LinkFaultPlan(loss_rate=0.0, burst_p=0.0))
        ),
        attacked=True,
    )
    assert _fingerprint(plain) == _fingerprint(zeroed) == _fingerprint(explicit)


def test_zero_plan_constructs_no_injector():
    from repro.experiments.world import World

    config = ExperimentConfig.inter_area_default(duration=5.0, seed=1)
    world = World(config, attacked=False)
    assert world.fault_injector is None
    assert world.channel.link_fault is None


def test_faulted_run_differs_from_the_ideal_run():
    config = ExperimentConfig.inter_area_default(duration=12.0, seed=5)
    plain = run_single(config, attacked=False)
    faulted = run_single(config.with_(faults=FAULT_PLAN), attacked=False)
    assert _fingerprint(plain) != _fingerprint(faulted)
    assert faulted.extras["fault_link_fault_drops"] > 0
    assert faulted.extras["fault_outages"] > 0


@pytest.mark.slow
def test_ledger_conserves_outcomes_under_loss_and_churn():
    config = ExperimentConfig.inter_area_default(duration=30.0, seed=3).with_(
        faults=FAULT_PLAN
    )
    ledger = PacketLedger()
    result = run_single(config, attacked=True, ledger=ledger)
    totals = ledger.outcome_totals()
    # conservation: every originated packet has exactly one outcome
    assert sum(totals.values()) == len(ledger) == result.n_packets
    assert result.extras["fault_outages"] > 0
    assert result.extras["fault_link_fault_drops"] > 0
    assert (
        result.extras["frames_fault_dropped"]
        == result.extras["fault_link_fault_drops"]
    )
    # the fault reasons actually absorb packets (copy-level at minimum)
    fault_events = (
        totals.get(reasons.FAULTED_LINK_LOSS, 0)
        + totals.get(reasons.NODE_DOWN, 0)
        + ledger.copy_drop_totals().get(reasons.NODE_DOWN, 0)
        + ledger.copy_drop_totals().get(reasons.FAULTED_LINK_LOSS, 0)
    )
    assert fault_events > 0


@pytest.mark.slow
def test_ledger_conserves_outcomes_under_gps_and_beacon_faults():
    from repro.faults import BeaconTimingPlan, GpsFaultPlan

    plan = FaultPlan(
        gps=GpsFaultPlan(error_stddev=5.0, drift_rate=1.0),
        beacon=BeaconTimingPlan(extra_jitter=0.2),
    )
    config = ExperimentConfig.inter_area_default(duration=20.0, seed=3).with_(
        faults=plan
    )
    ledger = PacketLedger()
    result = run_single(config, attacked=False, ledger=ledger)
    assert sum(ledger.outcome_totals().values()) == len(ledger)
    assert result.extras["fault_gps_faulted_beacons"] > 0
    assert result.extras["fault_extra_jitter_draws"] > 0


def test_invariant_checker_runs_clean_on_a_healthy_world():
    config = ExperimentConfig.inter_area_default(duration=8.0, seed=2).with_(
        invariant_check_interval=1.0
    )
    ledger = PacketLedger()
    result = run_single(config, attacked=False, ledger=ledger)
    assert result.extras["invariant_checks_run"] >= 7


def test_invariant_checker_with_faults_enabled():
    """Churn exercises exactly the paths the checker audits (grid
    membership, LocT wipes, CBF teardown) — a faulted run must stay
    invariant-clean."""
    config = ExperimentConfig.inter_area_default(duration=10.0, seed=4).with_(
        faults=FaultPlan.churning(10.0, mean_downtime=2.0),
        invariant_check_interval=0.5,
    )
    ledger = PacketLedger()
    result = run_single(config, attacked=True, ledger=ledger)
    assert result.extras["invariant_checks_run"] >= 19
    assert result.extras["fault_outages"] > 0


def test_fault_sweep_renders_the_impairment_grid(monkeypatch):
    from repro.experiments import impairments

    monkeypatch.setattr(impairments, "LOSS_LEVELS", (0.0, 0.2))
    monkeypatch.setattr(
        impairments, "CHURN_LEVELS", (("none", 0.0), ("heavy", 15.0))
    )
    sweep = impairments.fault_sweep(runs=1, duration=8.0, seed=2)
    assert [entry.label for entry in sweep.series] == [
        (0.0, "none"), (0.0, "heavy"), (0.2, "none"), (0.2, "heavy"),
    ]
    text = sweep.format()
    assert "loss x node churn" in text
    assert "churn=heavy" in text
    assert "loss= 20%" in text
    # the ideal cell is flagged as the paper's reference point
    assert "ideal-environment" in text
    cell = sweep.get(0.2, "heavy")
    assert not cell.result.config.faults.is_zero
    assert cell.result.config.faults.link.loss_rate == 0.2


@pytest.mark.slow
def test_fault_sweep_through_the_store_backed_campaign(monkeypatch, tmp_path):
    from repro.experiments import impairments
    from repro.experiments.service.scheduler import run_service_campaign
    from repro.experiments.sqlite_store import SqliteResultStore

    monkeypatch.setattr(impairments, "LOSS_LEVELS", (0.0,))
    monkeypatch.setattr(impairments, "CHURN_LEVELS", (("heavy", 15.0),))
    store = SqliteResultStore(tmp_path / "results.sqlite")
    kw = dict(runs=1, duration=8.0, seed=2, workers=1)
    report = run_service_campaign(["faults"], store=store, **kw)
    assert report.ok
    assert "faults" in report.outputs
    assert "churn=heavy" in report.outputs["faults"]
    # the sweep's runs landed in the store: a re-issue is free
    again = run_service_campaign(["faults"], store=store, **kw)
    assert again.skipped == again.planned
    assert again.executed == 0
