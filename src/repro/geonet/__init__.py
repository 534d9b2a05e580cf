"""An ETSI GeoNetworking (EN 302 636-4-1) stack.

Implements the parts of the standard the paper analyses:

* position-vector **beaconing** (3 s period, 0.75 s jitter) feeding a
  **location table** (LocT) with per-entry TTL;
* **Greedy Forwarding** (GF) for inter-area transport — pick the LocT
  neighbor closest to the destination area, forward link-layer unicast, no
  acknowledgement;
* **Contention-Based Forwarding** (CBF) for intra-area flooding — buffer,
  contend with a distance-dependent timer, suppress on duplicate;
* packet formats whose signed/unsigned field split mirrors the secured
  standard (the source-signed body vs the per-hop mutable RHL and sender
  position).

Mitigation hooks (the paper's §V defences) are part of the stack config:
:attr:`GeoNetConfig.plausibility_check` and :attr:`GeoNetConfig.rhl_check`.
"""

from repro.geonet.config import GeoNetConfig
from repro.geonet.packets import BeaconBody, GbcBody, GeoBroadcastPacket, PacketId
from repro.geonet.loct import LocationTable, LocationTableEntry
from repro.geonet.fleet import FleetBeaconScheduler, FleetState
from repro.geonet.gf import GreedyForwarder
from repro.geonet.cbf import CbfForwarder, contention_timeout
from repro.geonet.router import GeoRouter, RouterStats
from repro.geonet.node import GeoNode, StaticMobility

__all__ = [
    "BeaconBody",
    "CbfForwarder",
    "FleetBeaconScheduler",
    "FleetState",
    "GbcBody",
    "GeoBroadcastPacket",
    "GeoNetConfig",
    "GeoNode",
    "GeoRouter",
    "GreedyForwarder",
    "LocationTable",
    "LocationTableEntry",
    "PacketId",
    "RouterStats",
    "StaticMobility",
    "contention_timeout",
]
