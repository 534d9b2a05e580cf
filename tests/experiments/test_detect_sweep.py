"""Tests for the ``detect`` sweep: cell scoring, the store-backed campaign
target, the batched-fleet detector blind-spot fix, and the golden
clean-run / pinned-false-positive guarantees."""

import dataclasses

import pytest

from repro.experiments import detect
from repro.experiments.config import DetectionConfig, ExperimentConfig
from repro.experiments.detect import DetectCell, detect_sweep
from repro.experiments.metrics import BinnedRates
from repro.experiments.runner import AbResult, RunResult, run_single
from repro.faults.plan import FaultPlan, GpsFaultPlan
from tests.experiments.test_store import RESULTS_LAYOUTS, results_dir

SMALL_URBAN = dict(
    streets_x=3, streets_y=3, block_size=200.0, inter_vehicle_space=80.0
)


def shrink(monkeypatch, *, variants=("single",), scenarios=("highway",),
           impairments=None):
    monkeypatch.setattr(detect, "VARIANTS", tuple(variants))
    monkeypatch.setattr(detect, "DETECT_SCENARIOS", tuple(scenarios))
    monkeypatch.setattr(
        detect,
        "IMPAIRMENTS",
        impairments or (("clean", FaultPlan()),),
    )


def fake_run(*, attacked, seed=1, detection_s=-1.0, flagged=0.0,
             windows=8.0, alerts=0.0, replays=0.0):
    extras = {
        "detect_first_detection_s": detection_s,
        "detect_windows_flagged": flagged,
        "detect_windows_total": windows,
        "detect_alerts_total": alerts,
    }
    if attacked:
        extras["replays_sent"] = replays
    return RunResult(
        seed=seed,
        attacked=attacked,
        binned=BinnedRates(bin_width=5.0, rates=[0.4 if attacked else 0.8]),
        overall_rate=0.4 if attacked else 0.8,
        n_packets=10,
        outcomes=[],
        extras=extras,
    )


def fake_ab(config, af_runs, atk_runs):
    return AbResult(config=config, af_runs=af_runs, atk_runs=atk_runs)


# ----------------------------------------------------------------------
# cell scoring (pure, from synthetic extras)
# ----------------------------------------------------------------------
class TestCellMetrics:
    def cell(self, af_runs, atk_runs):
        config = ExperimentConfig.inter_area_default(duration=10.0)
        return DetectCell(
            scenario="highway", variant="single", impairment="clean",
            result=fake_ab(config, af_runs, atk_runs),
        )

    def test_recall_latency_precision_from_extras(self):
        cell = self.cell(
            af_runs=[fake_run(attacked=False), fake_run(attacked=False)],
            atk_runs=[
                fake_run(attacked=True, detection_s=5.0, flagged=3.0,
                         alerts=40.0, replays=100.0),
                fake_run(attacked=True, detection_s=15.0, flagged=1.0,
                         alerts=12.0, replays=90.0),
            ],
        )
        metrics = cell.metrics()
        assert metrics["recall"] == pytest.approx(1.0)
        assert metrics["latency"] == pytest.approx(10.0)
        assert metrics["precision"] == pytest.approx(1.0)
        assert metrics["fp_window_rate"] == pytest.approx(0.0)
        assert metrics["replays"] == pytest.approx(95.0)

    def test_impairment_flagging_af_runs_cost_precision(self):
        cell = self.cell(
            af_runs=[
                fake_run(attacked=False, flagged=2.0, alerts=30.0),
                fake_run(attacked=False),
            ],
            atk_runs=[
                fake_run(attacked=True, detection_s=5.0, flagged=4.0,
                         alerts=50.0),
            ],
        )
        metrics = cell.metrics()
        assert metrics["precision"] == pytest.approx(0.5)
        assert metrics["fp_window_rate"] == pytest.approx(2.0 / 16.0)
        assert metrics["fp_alerts"] == pytest.approx(30.0)

    def test_undetected_cell_has_no_latency(self):
        cell = self.cell(
            af_runs=[fake_run(attacked=False)],
            atk_runs=[fake_run(attacked=True)],
        )
        metrics = cell.metrics()
        assert metrics["recall"] == 0.0
        assert metrics["latency"] is None
        assert metrics["precision"] is None


# ----------------------------------------------------------------------
# sweep assembly (injected runner: no simulation)
# ----------------------------------------------------------------------
class TestSweepAssembly:
    def test_grid_covers_the_threat_matrix(self, monkeypatch):
        shrink(
            monkeypatch,
            variants=("single", "adaptive"),
            impairments=(
                ("clean", FaultPlan()),
                ("impaired", FaultPlan(gps=GpsFaultPlan(error_stddev=8.0))),
            ),
        )
        seen = []

        def runner(config, *, runs, processes):
            seen.append(config)
            detected = -1.0 if config.attack.variant == "adaptive" else 5.0
            return fake_ab(
                config,
                af_runs=[fake_run(attacked=False)],
                atk_runs=[fake_run(attacked=True, detection_s=detected,
                                   flagged=1.0 if detected > 0 else 0.0)],
            )

        sweep = detect_sweep(runs=1, duration=10.0, runner=runner)
        assert len(sweep.cells) == 4
        assert {c.config.attack.variant for c in map(
            lambda cell: cell.result, sweep.cells
        )} == {"single", "adaptive"}
        assert all(c.detection.enabled for c in seen)
        assert all(c.faults is not None for c in seen)
        cell = sweep.get("highway", "adaptive", "impaired")
        assert cell.result.config.label == "highway-adaptive-impaired"
        text = sweep.format()
        assert "recall" in text and "latency" in text
        # The acceptance headline: adaptive recall below static recall.
        assert "adaptive replay throttling cuts recall" in text

    def test_urban_cells_use_the_urban_scenario(self, monkeypatch):
        shrink(monkeypatch, scenarios=("urban",))

        def runner(config, *, runs, processes):
            assert config.scenario == "urban"
            return fake_ab(config, [fake_run(attacked=False)],
                           [fake_run(attacked=True)])

        sweep = detect_sweep(runs=1, duration=10.0, runner=runner)
        assert len(sweep.cells) == 1
        assert sweep.cells[0].label == "urban/single/clean"


# ----------------------------------------------------------------------
# end-to-end (real simulations, small worlds)
# ----------------------------------------------------------------------
def detect_config(duration=20.0, seed=3, **overrides):
    config = ExperimentConfig.inter_area_default(duration=duration, seed=seed)
    config = config.with_(
        road=dataclasses.replace(config.road, length=1500.0),
        attack=dataclasses.replace(config.attack, attack_range=600.0),
        detection=DetectionConfig(enabled=True),
    )
    return config.with_(**overrides) if overrides else config


class TestEndToEnd:
    def test_default_runs_carry_no_detection_machinery(self):
        result = run_single(
            ExperimentConfig.inter_area_default(duration=10.0, seed=3),
            attacked=False,
        )
        assert not any(k.startswith("detect_") for k in result.extras)

    def test_clean_attack_free_run_raises_zero_alerts(self):
        result = run_single(detect_config(), attacked=False)
        assert result.extras["detect_alerts_total"] == 0.0
        assert result.extras["detect_windows_flagged"] == 0.0
        assert result.extras["detect_first_detection_s"] == -1.0
        assert result.extras["detect_windows_total"] > 0.0

    def test_attack_is_detected_and_quantified(self):
        result = run_single(detect_config(), attacked=True)
        assert result.extras["detect_first_detection_s"] > 0.0
        assert result.extras["detect_alerts_replayed_beacon"] > 0.0
        assert result.extras["detect_alerts_implausible_position"] > 0.0

    def test_impaired_attack_free_fp_rate_is_pinned_in_extras(self):
        # GPS error is the false-positive source: honest far beacons look
        # implausible.  The run must *quantify* the alerts while the
        # default threshold keeps every window unflagged.
        config = detect_config().with_(
            faults=FaultPlan(gps=GpsFaultPlan(error_stddev=8.0))
        )
        result = run_single(config, attacked=False)
        assert result.extras["detect_alerts_total"] > 0.0
        assert result.extras["detect_windows_flagged"] == 0.0
        assert result.extras["detect_first_detection_s"] == -1.0

    def test_batched_fleet_detectors_see_the_attack(self):
        # Fleet beacons bypass the radio handler; the bulk tap keeps the
        # detectors observing.
        config = detect_config()
        attacked = run_single(config, attacked=True)
        assert attacked.extras["detect_alerts_total"] > 0.0
        assert attacked.extras["detect_first_detection_s"] > 0.0
        clean = run_single(config, attacked=False)
        assert clean.extras["detect_alerts_total"] == 0.0

    @pytest.mark.slow
    def test_adaptive_evades_where_static_is_caught(self):
        static = run_single(detect_config(duration=40.0), attacked=True)
        adaptive = run_single(
            detect_config(duration=40.0).with_(
                attack=dataclasses.replace(
                    detect_config().attack, variant="adaptive"
                )
            ),
            attacked=True,
        )
        assert static.extras["detect_first_detection_s"] > 0.0
        assert adaptive.extras["detect_first_detection_s"] == -1.0
        # ... at far lower replay spend but real interception impact.
        assert (
            adaptive.extras["replays_sent"]
            < static.extras["replays_sent"] / 10.0
        )


# ----------------------------------------------------------------------
# store-backed campaign target
# ----------------------------------------------------------------------
class TestCampaignTarget:
    @pytest.mark.slow
    @pytest.mark.parametrize("layout", RESULTS_LAYOUTS)
    def test_detect_through_store_backed_campaign(
        self, monkeypatch, tmp_path, layout
    ):
        from repro.experiments.campaign import plan_campaign
        from repro.experiments.service.scheduler import run_service_campaign
        from repro.experiments.sqlite_store import SqliteResultStore

        shrink(monkeypatch, variants=("single", "adaptive"))
        plan = dict(runs=1, duration=10.0, seed=2)
        keys = [s.key for s in plan_campaign(["detect"], **plan)]
        with results_dir(tmp_path, layout, keys) as path:
            store = SqliteResultStore(path)
            report = run_service_campaign(
                ["detect"], store=store, workers=1, **plan
            )
            assert report.ok
            assert report.executed == 4  # 2 cells x (af + atk)
            assert "detect:" in report.outputs["detect"]
            # Resume: the artefact reassembles from the store alone.
            again = run_service_campaign(
                ["detect"], store=store, workers=1, **plan
            )
            assert again.executed == 0
            assert again.skipped == report.executed
            assert again.outputs["detect"] == report.outputs["detect"]
