"""repro — a full-stack reproduction of
"Breaking Geographic Routing Among Connected Vehicles" (DSN 2023).

The package layers, bottom-up:

* :mod:`repro.sim` — discrete-event engine and deterministic random streams.
* :mod:`repro.geo` — positions, position vectors, destination areas.
* :mod:`repro.radio` — DSRC / C-V2X unit-disk broadcast channel (Table II).
* :mod:`repro.traffic` — IDM road-traffic microsimulation (Table I).
* :mod:`repro.security` — simulated ETSI/IEEE 1609.2 credentials & signing.
* :mod:`repro.geonet` — the GeoNetworking stack: beacons, LocT, GF, CBF.
* :mod:`repro.core` — the paper's contribution: the two attacks, the two
  mitigations, and the vulnerable-packet geometry.
* :mod:`repro.experiments` — world builder, A/B runner, metrics, and one
  driver per paper table/figure.

Quickstart::

    from repro.experiments import ExperimentConfig, run_ab

    config = ExperimentConfig.inter_area_default(duration=60.0)
    result = run_ab(config, runs=3)
    print(result.summary())
"""

from repro.geo import CircularArea, Position, PositionVector, RectangularArea
from repro.geonet import GeoNetConfig, GeoNode
from repro.radio import CV2X, DSRC, RangeClass
from repro.core import (
    InterAreaInterceptor,
    IntraAreaBlocker,
    VulnerabilityModel,
)

__version__ = "1.0.0"

__all__ = [
    "CV2X",
    "CircularArea",
    "DSRC",
    "GeoNetConfig",
    "GeoNode",
    "InterAreaInterceptor",
    "IntraAreaBlocker",
    "Position",
    "PositionVector",
    "RangeClass",
    "RectangularArea",
    "VulnerabilityModel",
    "__version__",
]
