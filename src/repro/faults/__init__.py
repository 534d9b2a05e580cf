"""Deterministic fault injection: plans (what breaks) and the injector (how).

See :doc:`docs/faults` for the fault model and the RNG determinism contract.
"""

from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import ChurnPlan, FaultPlan, GpsFaultPlan, LinkFaultPlan

__all__ = [
    "ChurnPlan",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "GpsFaultPlan",
    "LinkFaultPlan",
]
