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

The four inter-area rows (``inter-af``, ``inter-atk``, ``lossy-af``,
``urban-inter-atk``) were re-pinned a second time, deliberately, when the
fleet tick became the only beacon timer: the two static destination nodes
now beacon as fleet members instead of through per-node timers, so their
first deadlines are two more fresh-slot draws from the ``fleet-beacon``
stream, which shifts every later draw of that stream.  Their own
per-node streams no longer spend a start-delay draw either.  Intra-area
worlds have no roadside nodes and reproduce their rows unchanged.

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
        "digest": "025166e9c0d12c5ab6d74a4e98a7322e5e7431f04f2769ae55aaa937607a597f",
        "n_packets": 19,
        "overall_rate": 0.7894736842105263,
        "frames_sent": 1833,
        "frames_delivered": 102112,
        "unicast_lost": 4,
    },
    "inter-atk": {
        "digest": "b0caebbad3c3a380f36a22d2a5cacdc758af078acd2b05836e3944e60481ae80",
        "n_packets": 19,
        "overall_rate": 0.3684210526315789,
        "frames_sent": 2044,
        "frames_delivered": 113390,
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
        "digest": "e3fdd65afeb4b52a820652f1ece57623afd48a91465e235ceb689413d3ccf646",
        "n_packets": 19,
        "overall_rate": 0.42105263157894735,
        "frames_sent": 1807,
        "frames_delivered": 96567,
        "unicast_lost": 3,
    },
    "urban-inter-atk": {
        "digest": "cc11a7d7ca95dfb6ea90f7ffa20ae93007192c9209d17902ddc15f6269aac74b",
        "n_packets": 19,
        "overall_rate": 0.15789473684210525,
        "frames_sent": 1941,
        "frames_delivered": 58152,
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

