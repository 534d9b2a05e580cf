"""GeoNodes: the integration of mobility, radio, security and routing.

A :class:`GeoNode` is a vehicle or a piece of roadside infrastructure that
participates in GeoNetworking: it beacons its position vector, maintains a
location table, and forwards GeoBroadcast packets via GF/CBF.  Nodes hold
CA-issued credentials; every frame they emit carries a signed message.  A
fleet beacon is signed only when a frame carries it (:func:`sign_beacon`):
fleet receivers take its ``(addr, pv)`` entry and read no signature.

A node built on a slot of its channel's
:class:`~repro.geonet.fleet.FleetState` (``GeoNode(slot=...)``, a traffic
or roadside slot) beacons: the fleet's one
:class:`~repro.geonet.fleet.FleetBeaconScheduler` calls the node's four
beacon methods (:meth:`~GeoNode.beacon_active`,
:meth:`~GeoNode.beacon_extra_delay`, :meth:`~GeoNode.make_beacon`,
:meth:`~GeoNode.hear_beacons`).  A node built without a slot gets a
static slot from the channel, takes real frames, and beacons only when
told to (:meth:`~GeoNode.send_beacon`).
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.geo.areas import DestinationArea
from repro.geo.position import Position, PositionVector
from repro.geonet.config import GeoNetConfig
from repro.geonet.dcc import DccGate
from repro.geonet.packets import BeaconBody, GeoBroadcastPacket, PacketId
from repro.geonet.router import GeoRouter
from repro.observability.ledger import reasons
from repro.radio.channel import BroadcastChannel, RadioInterface
from repro.radio.frames import Frame, FrameKind
from repro.security.certificates import Credentials
from repro.security.signing import sign
from repro.sim.engine import Simulator


class StaticMobility:
    """Mobility source for roadside units and fixed destinations.

    A vehicle's mobility source is its :class:`~repro.traffic.vehicle.Vehicle`
    handle, which has the same ``position()`` / ``position_vector(now)``.
    """

    def __init__(self, position: Position):
        self._position = position

    def position(self) -> Position:
        return self._position

    def position_vector(self, now: float) -> PositionVector:
        return PositionVector(
            position=self._position, speed=0.0, heading=0.0, timestamp=now
        )


def sign_beacon(body, credentials):
    """The payload of a fleet beacon frame: ``body`` signed with
    ``credentials``, both as :meth:`GeoNode.make_beacon` returned them.

    The fleet tick calls this on a sender's first real frame of the tick,
    so a beacon no frame carries is never signed.  A fleet member without
    credentials (a transport-level stand-in for a node) sends its body
    unsigned.
    """
    if credentials is None:
        return body
    return sign(body, credentials)


def ledger_kind(payload) -> Optional[str]:
    """The :class:`~repro.observability.PacketLedger` namespace of a frame
    payload: ``"gbc"`` for a GeoBroadcast packet, None for beacons."""
    if isinstance(payload, GeoBroadcastPacket):
        return "gbc"
    return None


class GeoNode:
    """A GeoNetworking participant."""

    def __init__(
        self,
        *,
        sim: Simulator,
        channel: BroadcastChannel,
        config: GeoNetConfig,
        credentials: Credentials,
        mobility,
        tx_range: float,
        rng: Optional[random.Random] = None,
        name: str = "",
        pseudonym_pool=None,
        pseudonym_period: Optional[float] = None,
        ledger=None,
        slot: Optional[int] = None,
    ):
        # Validated before the radio registers: a raise must not leave a
        # live radio (and its claimed slot) on the channel.
        if pseudonym_period is not None:
            if pseudonym_pool is None:
                raise ValueError("pseudonym rotation requires a pool")
            if pseudonym_period <= 0:
                raise ValueError("pseudonym_period must be positive")
        self.sim = sim
        self.channel = channel
        self.config = config
        self.credentials = credentials
        self.mobility = mobility
        self.name = name
        self._shut_down = False
        #: Powered off by a fault-injected outage (distinct from the
        #: permanent ``_shut_down``): the radio leaves the channel and every
        #: protocol timer dies, but the node can :meth:`come_up` later.
        self._down = False
        #: Fault-injection hooks (installed by
        #: :class:`~repro.faults.injector.FaultInjector`; None costs
        #: nothing).  ``pv_fault`` perturbs the PV advertised in beacons —
        #: never the true mobility; ``beacon_extra_jitter`` delays beacon
        #: cycles further (:meth:`beacon_extra_delay`).
        self.pv_fault: Optional[Callable[[PositionVector], PositionVector]] = None
        self.beacon_extra_jitter: Optional[Callable[[], float]] = None
        #: Optional :class:`~repro.observability.PacketLedger`; must be set
        #: before the router is built so every service can capture it.
        self.ledger = ledger
        #: This node's fleet slot (its position; the tick beacons for it),
        #: or None for a node that does not beacon.
        self.slot = slot
        self.iface = RadioInterface(
            get_position=mobility.position, tx_range=tx_range, slot=slot
        )
        channel.register(self.iface)
        #: Per-node randomness (CBF timers).
        self.rng = rng if rng is not None else random.Random(self.iface.address)
        #: Reactive DCC gate shared by beacons and CBF/GF forwards; None
        #: when DCC is off (the default) so the stack stays bit-identical
        #: to the pre-DCC goldens.  Built before the router so the
        #: forwarding services can capture it.
        self.dcc: Optional[DccGate] = None
        if config.dcc_enabled:
            self.dcc = DccGate(sim, config, self._medium_busy)
        self.router = GeoRouter(self)
        self.iface.attach(self._on_frame)
        if slot is not None:
            channel.fleet.attach(slot, self, tx_range)
        # --- pseudonym rotation (privacy, paper §II) ----------------------
        # "A personal vehicle is allowed to use a pseudonym to hide its true
        # identity."  Rotation swaps the link-layer address; neighbors'
        # stale LocT entries for the old address linger until TTL and any
        # in-flight unicast toward it is lost — the real-world session-
        # continuity cost of pseudonym change.
        self._pseudonym_pool = pseudonym_pool
        self._rotation_process = None
        self.pseudonyms_used = 1
        if pseudonym_period is not None:
            from repro.sim.process import PeriodicProcess

            self._rotation_process = PeriodicProcess(
                sim,
                pseudonym_period,
                self._rotate_tick,
                start_delay=pseudonym_period,
            )

    def _medium_busy(self) -> bool:
        """Whether the medium is busy at the node's current position (the
        DCC/CBF carrier-sense probe, as a checkpointable descriptor)."""
        return self.channel.medium_busy(self.mobility.position())

    def _get_address(self) -> int:
        """The current link-layer address (survives pseudonym rotation)."""
        return self.iface.address

    def _rotate_tick(self) -> None:
        self.rotate_pseudonym()

    # ------------------------------------------------------------------
    # identity / state
    # ------------------------------------------------------------------
    @property
    def address(self) -> int:
        """The node's GeoNetworking (= link-layer) address."""
        return self.iface.address

    @property
    def is_shut_down(self) -> bool:
        return self._shut_down

    @property
    def is_down(self) -> bool:
        """Powered off by a fault-injected outage (may reboot later)."""
        return self._down

    def position(self) -> Position:
        """The node's current position."""
        return self.mobility.position()

    def position_vector(self) -> PositionVector:
        """The PV the node would advertise right now."""
        return self.mobility.position_vector(self.sim.now)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def send_beacon(self) -> None:
        """Broadcast a beacon with the current PV right now, outside the
        fleet tick (the announce after a pseudonym rotation)."""
        if self._shut_down or self._down:
            return
        out = self.make_beacon(self.position_vector(), self.sim.now)
        if out is not None:
            _entry, body, credentials = out
            self.iface.send(FrameKind.BEACON, sign(body, credentials))

    def send_unicast(self, dest_addr: int, packet: GeoBroadcastPacket) -> None:
        """Link-layer unicast of a GF-forwarded packet.

        No acknowledgement exists: if ``dest_addr`` is out of range the
        packet is silently lost (GF vulnerability #3).
        """
        if self._shut_down or self._down:
            self._ledger_swallowed(packet)
            return
        self.iface.send(FrameKind.GEO_UNICAST, packet, dest_addr=dest_addr)

    def send_broadcast(self, packet: GeoBroadcastPacket) -> None:
        """Link-layer broadcast of a CBF packet."""
        if self._shut_down or self._down:
            self._ledger_swallowed(packet)
            return
        self.iface.send(FrameKind.GEO_BROADCAST, packet)

    def _ledger_swallowed(self, packet) -> None:
        """Account a copy a shut-down / powered-off node couldn't transmit."""
        if self.ledger is None:
            return
        kind = ledger_kind(packet)
        if kind is not None:
            self.ledger.hop(
                kind,
                packet.packet_id,
                self.sim.now,
                self.address,
                "swallowed",
                detail="node-down" if self._down else "node-shut-down",
            )

    def originate(
        self,
        area: DestinationArea,
        payload: str,
        *,
        lifetime: Optional[float] = None,
        rhl: Optional[int] = None,
    ) -> PacketId:
        """Source a new GeoBroadcast packet toward ``area``."""
        return self.router.originate(area, payload, lifetime=lifetime, rhl=rhl)

    # ------------------------------------------------------------------
    # beaconing (called by the fleet's FleetBeaconScheduler)
    # ------------------------------------------------------------------
    def beacon_active(self) -> bool:
        """Whether the node beacons this cycle (not down, not shut down)."""
        return not (self._shut_down or self._down)

    def beacon_extra_delay(self) -> float:
        """Extra per-cycle beacon delay from the fault layer (0.0 unset)."""
        hook = self.beacon_extra_jitter
        return 0.0 if hook is None else hook()

    def make_beacon(self, pv: PositionVector, now: float):
        """Build this cycle's beacon: ``((addr, pv), body, credentials)``,
        or None when the DCC gate throttles it.

        The advertised PV passes through the fault layer's ``pv_fault``
        transform (GPS error/drift) when one is installed; the node's true
        mobility is never perturbed.  Nothing is signed here: batch
        receivers take the ``(addr, pv)`` entry, and the :class:`BeaconBody`
        is signed with these credentials only when a frame carries it: by
        :func:`sign_beacon` for a real-frame receiver of the tick, or by
        :meth:`send_beacon`.
        """
        if self.dcc is not None and not self.dcc.allow(now):
            self.dcc.stats.beacons_throttled += 1
            return None
        if self.pv_fault is not None:
            pv = self.pv_fault(pv)
        address = self.address
        body = BeaconBody(source_addr=address, pv=pv)
        return (address, pv), body, self.credentials

    def hear_beacons(self, batch, now: float) -> int:
        """Receive one fleet tick's ``(addr, pv)`` beacons for this node.

        A powered-off or shut-down radio hears nothing (its interface has
        left the channel); a live one hears the whole batch — router-level
        rejection (staleness) is not a channel event, exactly as with
        real frames.
        """
        if self._shut_down or self._down:
            return 0
        self.router.receive_beacons_bulk(batch, now)
        return len(batch)

    # ------------------------------------------------------------------
    # pseudonym rotation
    # ------------------------------------------------------------------
    def rotate_pseudonym(self) -> int:
        """Swap to a fresh pseudonymous link-layer address.

        Returns the new address.  The old interface leaves the channel, so
        unicasts addressed to the previous pseudonym are silently lost.
        """
        if self._pseudonym_pool is None:
            raise RuntimeError("node was created without a pseudonym pool")
        if self._shut_down or self._down:
            return self.address
        old_iface = self.iface
        # The new radio takes the node's slot, so the fleet tick beacons
        # from, and delivers to, it.
        new_iface = RadioInterface(
            get_position=self.mobility.position,
            tx_range=old_iface.tx_range,
            address=self._pseudonym_pool.draw(),
            slot=self.slot,
        )
        self.channel.unregister(old_iface)
        self.channel.register(new_iface)
        new_iface.attach(self._on_frame)
        self.iface = new_iface
        self.pseudonyms_used += 1
        # Announce the new identity immediately so neighbors relearn us.
        self.send_beacon()
        return self.address

    # ------------------------------------------------------------------
    # power state (fault injection)
    # ------------------------------------------------------------------
    def go_down(self) -> None:
        """Power off mid-run (fault-injected outage).

        The radio leaves the channel, beaconing stops, and every pending
        protocol timer dies — buffered copies are accounted ``node-down``
        in the ledger.  Stats counters survive (they feed the run's
        aggregate totals).  :meth:`come_up` reverses this.
        """
        if self._shut_down or self._down:
            return
        self._down = True
        self.router.power_off()
        self.channel.unregister(self.iface)

    def come_up(self) -> None:
        """Reboot after :meth:`go_down`.

        The radio rejoins the channel and beaconing restarts, but volatile
        router state — LocT and CBF duplicate memory — is wiped, exactly
        what a real OBU loses with its RAM.
        """
        if self._shut_down or not self._down:
            return
        self._down = False
        self.router.power_on()
        if self.dcc is not None:
            self.dcc.reset_state()
        self.channel.register(self.iface)

    # ------------------------------------------------------------------
    # reception / teardown
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        if self._shut_down:
            return
        if self._down:
            # In-flight deliveries scheduled before the outage land on a
            # dead radio.  A unicast addressed to this node dies here for
            # good; broadcast copies are redundant and not terminal.
            if frame.dest_addr == self.address and self.ledger is not None:
                kind = ledger_kind(frame.payload)
                if kind is not None:
                    self.ledger.dropped(
                        kind,
                        frame.payload.packet_id,
                        self.sim.now,
                        self.address,
                        reasons.NODE_DOWN,
                        detail="delivered-to-powered-off-radio",
                    )
            return
        self.router.handle_frame(frame)

    def shutdown(self) -> None:
        """Leave the network: stop beaconing, cancel timers, detach radio."""
        if self._shut_down:
            return
        self._shut_down = True
        if self._rotation_process is not None:
            self._rotation_process.stop()
        self.router.shutdown()
        self.channel.unregister(self.iface)
