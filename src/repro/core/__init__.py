"""The paper's core contribution: attacks, mitigations, vulnerability model.

* :mod:`repro.core.attacks` — the two proof-of-concept outsider attacks
  (§III): the beacon-replay *inter-area interception attack* against GF and
  the packet-replay *intra-area blockage attack* against CBF.
* :mod:`repro.core.mitigations` — the standard-compatible defences (§V):
  the GF forwarding-time plausibility check and the CBF RHL-drop check.
* :mod:`repro.core.vulnerability` — the geometry of *vulnerable packets*
  (§IV-A, Fig 6): which packets an attacker at a given position with a given
  range can intercept.
"""

from repro.core.attacks import (
    AttackerStats,
    InsiderBlackhole,
    InterAreaInterceptor,
    IntraAreaBlocker,
    OutsiderBlackhole,
    RoadsideAttacker,
)
from repro.core.detection import (
    Alert,
    DetectorStats,
    MisbehaviorDetector,
    deploy_fleet_detectors,
)
from repro.core.mitigations import duplicate_rhl_plausible, position_plausible
from repro.core.vulnerability import VulnerabilityModel

__all__ = [
    "Alert",
    "AttackerStats",
    "DetectorStats",
    "InsiderBlackhole",
    "InterAreaInterceptor",
    "IntraAreaBlocker",
    "MisbehaviorDetector",
    "OutsiderBlackhole",
    "RoadsideAttacker",
    "VulnerabilityModel",
    "deploy_fleet_detectors",
    "duplicate_rhl_plausible",
    "position_plausible",
]
