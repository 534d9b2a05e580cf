"""Road-traffic microsimulation substrate.

Implements the paper's mobility layer: a 4 km multi-lane road segment (or
a Manhattan street grid for the urban scenarios), Intelligent Driver Model
car following (Table I parameters), an entrance spawner (a vehicle enters
at 30 m/s when the vehicle ahead is more than the inter-vehicle space away
from the entrance) and hazard events that block lanes for the
traffic-impact study (Fig 12).  Both road shapes are lists of directed
:class:`Lane` objects, and one :class:`TrafficSimulation` steps them all.
"""

from repro.traffic.idm import IdmParameters, idm_acceleration, idm_acceleration_array
from repro.traffic.road import Direction, Lane, RoadSegment
from repro.traffic.vehicle import Vehicle
from repro.traffic.spawner import EntranceSpawner
from repro.traffic.hazard import HazardEvent
from repro.traffic.simulation import TrafficSimulation

__all__ = [
    "Direction",
    "EntranceSpawner",
    "HazardEvent",
    "IdmParameters",
    "Lane",
    "RoadSegment",
    "TrafficSimulation",
    "Vehicle",
    "idm_acceleration",
    "idm_acceleration_array",
]
