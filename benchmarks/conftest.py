"""Benchmark configuration.

Each benchmark regenerates one paper artefact end-to-end.  Scale is
controlled by environment variables so the same targets serve both a quick
laptop check and a full paper-scale regeneration:

* ``REPRO_BENCH_DURATION`` — simulated seconds per run (default 40; the
  paper uses 200);
* ``REPRO_BENCH_RUNS`` — A/B runs per setting (default 1; the paper uses
  100).

Runs execute serially in-process; parallel paper-scale regeneration is
``repro-experiments campaign``.

Measured drop rates and reception levels are attached to each benchmark's
``extra_info`` so the JSON output doubles as an experiment record.
"""

from __future__ import annotations

import os

import pytest


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@pytest.fixture(scope="session")
def bench_scale():
    return {
        "duration": _env_float("REPRO_BENCH_DURATION", 40.0),
        "runs": _env_int("REPRO_BENCH_RUNS", 1),
        "seed": _env_int("REPRO_BENCH_SEED", 1),
    }


def record_series(benchmark, figure_result) -> None:
    """Attach a FigureResult's headline numbers to the benchmark record."""
    for series in figure_result.series:
        drop = series.drop
        benchmark.extra_info[f"{series.label} drop"] = (
            None if drop is None else round(drop, 4)
        )
        benchmark.extra_info[f"{series.label} af"] = round(
            series.result.af_overall, 4
        )
        benchmark.extra_info[f"{series.label} atk"] = round(
            series.result.atk_overall, 4
        )
