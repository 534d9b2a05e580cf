"""Shared fixtures: a wired-up mini GeoNetworking testbed.

Most protocol tests want "a few nodes on a channel with credentials"; the
``testbed`` fixture provides exactly that without the full experiment World.
Beaconing nodes are members of the testbed's fleet and beacon through its
one :class:`~repro.geonet.fleet.FleetBeaconScheduler`, as in a World.
"""

from __future__ import annotations

import pytest

from repro.geo.position import Position
from repro.geonet.config import GeoNetConfig
from repro.geonet.fleet import FleetBeaconScheduler
from repro.geonet.node import GeoNode, StaticMobility
from repro.radio.channel import BroadcastChannel
from repro.radio.technology import DSRC
from repro.security.ca import CertificateAuthority
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class Testbed:
    """A simulator + channel + CA + beaconing fleet with helpers to place
    static nodes."""

    def __init__(self, seed: int = 42, config: GeoNetConfig | None = None):
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.channel = BroadcastChannel(self.sim, self.streams)
        self.ca = CertificateAuthority()
        self.config = config or GeoNetConfig(dist_max=DSRC.max_range_m)
        self.fleet = self.channel.fleet
        self.fleet_scheduler = FleetBeaconScheduler(
            self.sim,
            self.fleet,
            self.channel,
            self.streams.get_numpy("fleet-beacon"),
            period=self.config.beacon_period,
            jitter=self.config.beacon_jitter,
        )
        self._counter = 0

    def add_node(
        self,
        x: float,
        y: float = 0.0,
        *,
        tx_range: float = DSRC.nlos_median_m,
        beaconing: bool = True,
        config: GeoNetConfig | None = None,
        name: str | None = None,
        ledger=None,
        **node_kwargs,
    ) -> GeoNode:
        self._counter += 1
        node_name = name or f"node{self._counter}"
        node = GeoNode(
            sim=self.sim,
            channel=self.channel,
            config=config or self.config,
            credentials=self.ca.enroll(node_name),
            mobility=StaticMobility(Position(x, y)),
            tx_range=tx_range,
            rng=self.streams.get(f"beacon:{node_name}"),
            name=node_name,
            ledger=ledger,
            slot=self.fleet.add(x=x, y=y) if beaconing else None,
            **node_kwargs,
        )
        return node

    def beacons_sent(self, node: GeoNode) -> int:
        """Beacons the fleet tick has sent for ``node``."""
        return int(self.fleet.beacons_sent[self.fleet.members.index(node)])

    def chain(self, n: int, spacing: float, **kwargs) -> list:
        """n static nodes spaced ``spacing`` metres apart along +x."""
        return [self.add_node(i * spacing, **kwargs) for i in range(n)]

    def warm_up(self, seconds: float = 8.0) -> None:
        """Run long enough for everyone to have beaconed at least twice."""
        self.sim.run_until(self.sim.now + seconds)


@pytest.fixture
def testbed() -> Testbed:
    return Testbed()


@pytest.fixture
def make_testbed():
    def factory(seed: int = 42, config: GeoNetConfig | None = None) -> Testbed:
        return Testbed(seed=seed, config=config)

    return factory
