"""Seed-paired golden regression for whole World runs.

The GOLDEN digests below hash every full-precision field of every
:class:`PacketOutcome`, so they only reproduce if a change preserves the
exact delivery order and RNG draw order of the run they were captured
from.  Regenerate them with ``tests/experiments/_golden_capture.py``.

They were first captured from the linear-scan channel and kept through the
spatial-grid refactor.  They were re-pinned once, deliberately, when the
fleet beacon tick became the World's only vehicle path: the per-object
beacon timers, the linear-scan receiver fallback and the channel's own
loss model were removed.  Vehicle beacon jitter now comes from the
``fleet-beacon`` stream, and ``lossy-af`` draws its 5 % loss from the
fault layer (``FaultPlan.lossy(0.05)``) instead of the channel.  Behaviour
that goldens cannot vouch for is pinned by oracles instead
(``test_metamorphic.py``, the brute-force reference in
``tests/radio/test_channel_semantics.py``).

The ``urban-*`` rows pin the Manhattan-grid scenario (turning traffic,
corner shadowing).  They were captured before the grid and highway
traffic steppers were merged into one, and the merged stepper reproduces
them unchanged.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.faults.plan import FaultPlan
from tests.experiments._golden_capture import outcome_digest

GOLDEN = {
    "inter-af": {
        "digest": "59ffe1708c4d0a9434015dbb47b0572ee44efe29346ec9e77498f9c93c79bd75",
        "n_packets": 19,
        "overall_rate": 0.7368421052631579,
        "frames_sent": 1844,
        "frames_delivered": 102660,
        "unicast_lost": 5,
    },
    "inter-atk": {
        "digest": "b69a687607a4b0aa66d9a0d20f8a96b96b83e3280cc8445b6997ce3ddadf95b0",
        "n_packets": 19,
        "overall_rate": 0.3684210526315789,
        "frames_sent": 2041,
        "frames_delivered": 113285,
        "unicast_lost": 12,
    },
    "intra-atk": {
        "digest": "d728cf748fc7231248e4692d3672770bd9d16b081b08f5d964b465b89482068f",
        "n_packets": 19,
        "overall_rate": 0.6168121288234051,
        "frames_sent": 1793,
        "frames_delivered": 107815,
        "unicast_lost": 0,
    },
    "lossy-af": {
        "digest": "0275c8e09a4e069a19a77181eb110c53a75429eb1d54eb91e7a524f6371d1d15",
        "n_packets": 19,
        "overall_rate": 0.631578947368421,
        "frames_sent": 1826,
        "frames_delivered": 97256,
        "unicast_lost": 2,
    },
    "urban-inter-atk": {
        "digest": "f63a3e0c8cdbf4ccb679100323e7fbd604b97a6c609da6ea842785e87b3f1886",
        "n_packets": 19,
        "overall_rate": 0.15789473684210525,
        "frames_sent": 1933,
        "frames_delivered": 57847,
        "unicast_lost": 16,
    },
    "urban-intra-atk": {
        "digest": "52ed31647f71ca449315d949cfb8caaf782b5b789cc6f0777719b1839128319b",
        "n_packets": 19,
        "overall_rate": 0.6029255023811787,
        "frames_sent": 1978,
        "frames_delivered": 61155,
        "unicast_lost": 0,
    },
}


def _configs():
    inter = ExperimentConfig.inter_area_default(duration=20.0, seed=7)
    intra = ExperimentConfig.intra_area_default(duration=20.0, seed=7)
    lossy = inter.with_(faults=FaultPlan.lossy(0.05))
    return {
        "inter-af": (inter, False),
        "inter-atk": (inter, True),
        "intra-atk": (intra, True),
        "lossy-af": (lossy, False),
        "urban-inter-atk": (inter.urbanized(), True),
        "urban-intra-atk": (intra.urbanized(), True),
    }


@pytest.mark.slow
@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_grid_channel_reproduces_pre_refactor_golden(label):
    """The name predates the re-pin described in the module docstring."""
    config, attacked = _configs()[label]
    result = run_single(config, attacked=attacked)
    expected = GOLDEN[label]
    assert outcome_digest(result) == expected["digest"]
    assert result.n_packets == expected["n_packets"]
    assert result.overall_rate == expected["overall_rate"]
    assert int(result.extras["frames_sent"]) == expected["frames_sent"]
    assert (
        int(result.extras["frames_delivered"]) == expected["frames_delivered"]
    )
    assert int(result.extras["unicast_lost"]) == expected["unicast_lost"]

