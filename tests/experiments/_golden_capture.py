"""Capture golden digests for the seed-paired equivalence regression test.

Run manually (never by pytest) to regenerate the literals embedded in
``tests/experiments/test_seed_equivalence.py``::

    PYTHONPATH=src python tests/experiments/_golden_capture.py

The digests are computed from full-precision outcome fields, so they only
match if a change preserves the exact delivery order and RNG draw order of
the run they were captured from.
"""

from __future__ import annotations

import hashlib

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.faults.plan import FaultPlan


def outcome_digest(result) -> str:
    # packet_id is deliberately excluded: it is a label (source address and
    # sequence number), not behaviour, and the pinned digests were captured
    # when addresses came from a process-global counter that shifted with
    # every World run earlier in the process.  Each channel numbers its own
    # addresses now, so packet ids are reproducible; adding them would only
    # re-pin the literals.  Every behavioral field is kept at full float
    # precision.
    rows = [
        (
            o.send_time,
            o.source_x,
            o.direction,
            o.success,
            o.receivers,
            o.denominator,
            o.in_fully_covered_area,
            o.delivery_latency,
        )
        for o in result.outcomes
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def describe(label, config, attacked):
    result = run_single(config, attacked=attacked)
    print(f'    "{label}": {{')
    print(f'        "digest": "{outcome_digest(result)}",')
    print(f'        "n_packets": {result.n_packets},')
    print(f'        "overall_rate": {result.overall_rate!r},')
    print(f'        "frames_sent": {int(result.extras["frames_sent"])},')
    print(
        f'        "frames_delivered": {int(result.extras["frames_delivered"])},'
    )
    print(f'        "unicast_lost": {int(result.extras["unicast_lost"])},')
    print("    },")


def main():
    inter = ExperimentConfig.inter_area_default(duration=20.0, seed=7)
    intra = ExperimentConfig.intra_area_default(duration=20.0, seed=7)
    lossy = inter.with_(faults=FaultPlan.lossy(0.05))
    print("GOLDEN = {")
    describe("inter-af", inter, False)
    describe("inter-atk", inter, True)
    describe("intra-atk", intra, True)
    describe("lossy-af", lossy, False)
    describe("urban-inter-atk", inter.urbanized(), True)
    describe("urban-intra-atk", intra.urbanized(), True)
    print("}")


if __name__ == "__main__":
    main()
