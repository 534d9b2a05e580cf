"""The GeoNetworking router: ties beacons, LocT, GF and CBF together.

Per EN 302 636-4-1 GeoBroadcast forwarding:

* a node *outside* the destination area forwards via GF (link-layer unicast
  to the selected next hop, no acknowledgement);
* a node *inside* the area disseminates via CBF broadcast;
* a GF-carried packet that reaches a node inside the area is delivered and
  injected into the intra-area CBF flood;
* duplicate detection is by (source address, sequence number);
* RHL is decremented at every forwarding and packets are dropped when their
  lifetime or hop budget is exhausted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Set

from repro.geo.areas import DestinationArea
from repro.geonet.cbf import CbfForwarder, SfotCbfForwarder
from repro.geonet.gf import GreedyForwarder
from repro.geonet.loct import LocationTable
from repro.geonet.packets import BeaconBody, GbcBody, GeoBroadcastPacket, PacketId
from repro.observability.ledger import reasons
from repro.radio.frames import Frame, FrameKind
from repro.security.signing import SignedMessage, sign, verify
from repro.sim.events import EventHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.geonet.node import GeoNode


@dataclass
class RouterStats:
    """Per-node protocol counters."""

    originated: int = 0
    delivered: int = 0
    beacons_accepted: int = 0
    beacons_rejected_auth: int = 0
    beacons_rejected_stale: int = 0
    gbc_rejected_auth: int = 0
    gf_forwards: int = 0
    gf_rechecks: int = 0
    gf_lifetime_drops: int = 0
    gf_rhl_drops: int = 0
    #: GF forwards held back by the reactive DCC gate and parked in the
    #: recheck loop (they retry after ``gf_recheck_interval``).
    gf_dcc_deferred: int = 0
    unicast_duplicates: int = 0
    out_of_area_broadcasts: int = 0


class GeoRouter:
    """The per-node routing state machine."""

    def __init__(self, node: "GeoNode"):
        self.node = node
        self.config = node.config
        #: Optional PacketLedger shared by every service of this node.
        self.ledger = node.ledger
        self.loct = LocationTable(ttl=self.config.loct_ttl)
        self.gf = GreedyForwarder(self.config, self.loct)
        forwarder_cls = (
            SfotCbfForwarder if self.config.cbf_variant == "sfot+" else CbfForwarder
        )
        self.cbf = forwarder_cls(
            sim=node.sim,
            config=self.config,
            get_position=node.position,
            deliver=self._deliver_local,
            broadcast=self._cbf_broadcast,
            rng=node.rng,
            medium_busy=node._medium_busy,
            ledger=self.ledger,
            get_addr=node._get_address,
            dcc=node.dcc,
        )
        self._seq = itertools.count(1)
        self._pending_rechecks: Set[EventHandle] = set()
        self.on_deliver: List[Callable[["GeoNode", GeoBroadcastPacket], None]] = []
        #: Passive observers of every beacon batch the router is handed
        #: (``tap(entries, now)``), called before the freshness check —
        #: misbehavior detectors register here.
        self.beacon_taps: List[Callable[[list, float], None]] = []
        self.stats = RouterStats()

    # ------------------------------------------------------------------
    # origination
    # ------------------------------------------------------------------
    def originate(
        self,
        area: DestinationArea,
        payload: str,
        *,
        lifetime: Optional[float] = None,
        rhl: Optional[int] = None,
    ) -> PacketId:
        """Create, sign and route a new GeoBroadcast packet."""
        now = self.node.sim.now
        body = GbcBody(
            source_addr=self.node.address,
            sequence_number=next(self._seq),
            source_pv=self.node.position_vector(),
            area=area,
            payload=payload,
            lifetime=self.config.default_lifetime if lifetime is None else lifetime,
            created_at=now,
        )
        packet = GeoBroadcastPacket(
            signed=sign(body, self.node.credentials),
            rhl=self.config.default_rhl if rhl is None else rhl,
            sender_addr=self.node.address,
            sender_position=self.node.position(),
        )
        self.stats.originated += 1
        if self.ledger is not None:
            self.ledger.originated("gbc", packet.packet_id, now, self.node.address)
        self._route(packet)
        return packet.packet_id

    def _route(self, packet: GeoBroadcastPacket) -> None:
        if packet.area.contains(self.node.position()):
            self._deliver_local(packet)
            self.cbf.originate(packet)
        else:
            self._gf_route(packet)

    # ------------------------------------------------------------------
    # frame reception
    # ------------------------------------------------------------------
    def handle_frame(self, frame: Frame) -> None:
        """Entry point for every frame the radio delivers."""
        payload = frame.payload
        if frame.kind is FrameKind.BEACON:
            self._handle_beacon(payload)
        elif frame.kind is FrameKind.GEO_BROADCAST:
            self._handle_gbc_broadcast(payload)
        elif frame.kind is FrameKind.GEO_UNICAST:
            self._handle_gbc_unicast(payload)

    def _handle_beacon(self, message: SignedMessage) -> None:
        if not isinstance(message, SignedMessage):
            return  # not a signed beacon: nothing to verify or store
        if not verify(message):
            self.stats.beacons_rejected_auth += 1
            return
        body: BeaconBody = message.body
        if not isinstance(body, BeaconBody):
            return
        if body.source_addr == self.node.address:
            return  # our own beacon echoed back (e.g. by a replayer)
        self.receive_beacons_bulk([(body.source_addr, body.pv)], self.node.sim.now)

    def receive_beacons_bulk(self, entries, now: float) -> int:
        """Accept a batch of authentic beacons into the LocT.

        The one place a beacon enters the location table.  ``entries`` are
        ``(addr, pv)`` pairs sharing one timestamp: a fleet tick's batch
        for this receiver, or the single beacon of a frame that passed
        :meth:`_handle_beacon`'s verify, body-type and self-echo checks.
        Fleet batches come straight from their senders' members, so they
        carry no signature to verify (the tick signs a beacon only when a
        real frame carries it, and :func:`sign` records that frame's
        verdict), and never contain self pairs.  Every :attr:`beacon_taps`
        observer sees the batch first, stale or not; the freshness window
        is then checked once for the whole batch.  Returns how many were
        accepted.
        """
        n = len(entries)
        if n == 0:
            return 0
        for tap in self.beacon_taps:
            tap(entries, now)
        if entries[0][1].age(now) > self.config.beacon_freshness_window:
            self.stats.beacons_rejected_stale += n
            return 0
        # NOTE: the standard performs *no* distance plausibility check here —
        # an authentic beacon relayed from far away is accepted as a
        # neighbor.  This is deliberate (vulnerability #2 of the paper).
        self.loct.update_many(entries, now)
        self.stats.beacons_accepted += n
        return n

    def _handle_gbc_broadcast(self, packet: GeoBroadcastPacket) -> None:
        if not verify(packet.signed):
            self.stats.gbc_rejected_auth += 1
            return
        if not packet.area.contains(self.node.position()):
            self.stats.out_of_area_broadcasts += 1
            return
        self.cbf.handle_broadcast(packet)

    def _handle_gbc_unicast(self, packet: GeoBroadcastPacket) -> None:
        if not verify(packet.signed):
            self.stats.gbc_rejected_auth += 1
            return
        now = self.node.sim.now
        if packet.expired(now):
            self.stats.gf_lifetime_drops += 1
            self._ledger_drop(packet, now, reasons.LIFETIME_EXPIRED)
            return
        if packet.area.contains(self.node.position()):
            packet_id = packet.packet_id
            if self.cbf.has_processed(packet_id):
                self.stats.unicast_duplicates += 1
                return
            self._deliver_local(packet)
            forward_rhl = packet.rhl - 1
            if forward_rhl > 0:
                self.cbf.originate(
                    packet.next_hop_copy(
                        rhl=forward_rhl,
                        sender_addr=self.node.address,
                        sender_position=self.node.position(),
                    )
                )
            else:
                self.cbf.mark_done(
                    packet_id,
                    expires_at=packet.body.created_at + packet.body.lifetime,
                )
        else:
            self._gf_route(packet)

    # ------------------------------------------------------------------
    # greedy forwarding
    # ------------------------------------------------------------------
    def _gf_route(self, packet: GeoBroadcastPacket, rechecked: bool = False) -> None:
        now = self.node.sim.now
        ledger = self.ledger
        if packet.expired(now):
            self.stats.gf_lifetime_drops += 1
            # A packet that expired while parked in the no-progress recheck
            # loop died of GF starvation, not of ordinary transit lifetime.
            self._ledger_drop(
                packet,
                now,
                reasons.GF_NO_PROGRESS_EXPIRED
                if rechecked
                else reasons.LIFETIME_EXPIRED,
            )
            return
        if packet.rhl < 1:
            self.stats.gf_rhl_drops += 1
            self._ledger_drop(packet, now, reasons.RHL_EXHAUSTED)
            return
        selection = self.gf.select_next_hop(
            self.node.position(),
            packet.area,
            now,
            exclude={self.node.address, packet.sender_addr},
        )
        if selection.next_hop is not None:
            if self.node.dcc is not None and not self.node.dcc.allow(now):
                # The access layer is rate-limiting this station: park the
                # forward in the recheck loop (a DCC queue would hold the
                # frame; the recheck re-selects against a fresher LocT).
                self.stats.gf_dcc_deferred += 1
                if ledger is not None:
                    ledger.hop(
                        "gbc", packet.packet_id, now, self.node.address,
                        "dcc-defer",
                    )
                handle = self.node.sim.schedule(
                    self.config.gf_recheck_interval, self._gf_route, packet, True
                )
                self._pending_rechecks.add(handle)
                self._prune_rechecks()
                return
            out = packet.next_hop_copy(
                rhl=packet.rhl - 1,
                sender_addr=self.node.address,
                sender_position=self.node.position(),
            )
            if ledger is not None:
                ledger.hop(
                    "gbc",
                    packet.packet_id,
                    now,
                    self.node.address,
                    "gf-forward",
                    detail=f"next-hop={selection.next_hop.addr}",
                )
            self.node.send_unicast(selection.next_hop.addr, out)
            self.stats.gf_forwards += 1
        else:
            # "the forwarder either rechecks its LocT later or broadcasts the
            # packet without specifying the next hop" — we recheck.
            self.stats.gf_rechecks += 1
            if ledger is not None:
                ledger.hop(
                    "gbc", packet.packet_id, now, self.node.address, "gf-recheck"
                )
            handle = self.node.sim.schedule(
                self.config.gf_recheck_interval, self._gf_route, packet, True
            )
            self._pending_rechecks.add(handle)
            self._prune_rechecks()

    def _prune_rechecks(self) -> None:
        # A handle whose due time has passed has fired (``cancelled`` stays
        # False after firing), so prune by due time as well — otherwise the
        # set retains every recheck ever scheduled.
        if len(self._pending_rechecks) > 64:
            now = self.node.sim.now
            self._pending_rechecks = {
                h
                for h in self._pending_rechecks
                if not h.cancelled and h.time > now
            }

    # ------------------------------------------------------------------
    # delivery / CBF integration
    # ------------------------------------------------------------------
    def _deliver_local(self, packet: GeoBroadcastPacket) -> None:
        self.stats.delivered += 1
        if self.ledger is not None:
            self.ledger.delivered(
                "gbc", packet.packet_id, self.node.sim.now, self.node.address
            )
        for callback in self.on_deliver:
            callback(self.node, packet)

    def _ledger_drop(
        self, packet: GeoBroadcastPacket, now: float, reason: str
    ) -> None:
        if self.ledger is not None:
            self.ledger.dropped(
                "gbc", packet.packet_id, now, self.node.address, reason
            )

    def _cbf_broadcast(self, packet: GeoBroadcastPacket, rhl: int) -> None:
        out = packet.next_hop_copy(
            rhl=rhl,
            sender_addr=self.node.address,
            sender_position=self.node.position(),
        )
        self.node.send_broadcast(out)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Cancel timers and pending rechecks (node leaving)."""
        self.cbf.shutdown()
        for handle in self._pending_rechecks:
            handle.cancel()
        self._pending_rechecks.clear()

    # ------------------------------------------------------------------
    # power state (fault injection)
    # ------------------------------------------------------------------
    def power_off(self) -> None:
        """The node lost power: every timer dies and the copies they were
        carrying are accounted ``node-down``.  Stats objects survive — the
        run's aggregate totals read them after the node reboots."""
        now = self.node.sim.now
        self.cbf.power_off()
        for handle in self._pending_rechecks:
            if not handle.cancelled and handle.time > now and handle.args:
                self._ledger_drop(handle.args[0], now, reasons.NODE_DOWN)
            handle.cancel()
        self._pending_rechecks.clear()

    def power_on(self) -> None:
        """Reboot: volatile state (LocT, CBF duplicate memory) is wiped;
        identity, credentials and counters persist."""
        now = self.node.sim.now
        self.loct.clear(now)
        self.cbf.reset_state(now)
