"""Single-Hop Broadcast (SHB) — the CAM/BSM transport.

Cooperative awareness messages (ETSI CAM / SAE BSM) are GN Single-Hop
Broadcasts: signed, never forwarded, sent periodically at up to 10 Hz.
They ride the same radio as beacons and GeoBroadcast, carry the sender's PV
plus an application payload, and update receivers' location tables exactly
like beacons do (EN 302 636-4-1: SHB packets are an implicit beacon).

This is the transport the paper's motivating applications (emergency-brake
warnings to direct neighbors) use when no multi-hop dissemination is
needed; it also means a deployment running CAMs can lower its dedicated
beacon rate — modelled here by :class:`ShbService` optionally replacing the
beacon service.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.geo.position import PositionVector
from repro.geonet.node import GeoNode
from repro.radio.frames import Frame, FrameKind
from repro.security.signing import SignedMessage, sign, verify
from repro.sim.process import PeriodicProcess


@dataclass(frozen=True)
class ShbBody:
    """The signed content of a single-hop broadcast."""

    source_addr: int
    sequence_number: int
    pv: PositionVector
    payload: str


@dataclass
class ShbStats:
    """Counters for the SHB service."""

    sent: int = 0
    received: int = 0
    rejected_auth: int = 0


class ShbService:
    """Per-node SHB sender/receiver.

    Attach to a node; received SHBs update the location table (implicit
    beaconing, through the router's one beacon acceptor,
    :meth:`~repro.geonet.router.GeoRouter.receive_beacons_bulk`) and are
    handed to ``on_receive`` callbacks.  A periodic awareness payload can
    be scheduled with :meth:`start_periodic`.
    """

    def __init__(self, node: GeoNode):
        self.node = node
        self._seq = itertools.count(1)
        self.stats = ShbStats()
        self.on_receive: List[Callable[[GeoNode, ShbBody], None]] = []
        self._process: Optional[PeriodicProcess] = None
        self._payload_fn: Optional[Callable[[], str]] = None
        self._inner = node.iface.handler
        node.iface.attach(self._observe)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, payload: str) -> int:
        """Sign and broadcast one SHB; returns its sequence number."""
        body = ShbBody(
            source_addr=self.node.address,
            sequence_number=next(self._seq),
            pv=self.node.position_vector(),
            payload=payload,
        )
        self.stats.sent += 1
        self.node.iface.send(FrameKind.BEACON, _ShbEnvelope(sign(body, self.node.credentials)))
        return body.sequence_number

    def start_periodic(
        self, payload_fn: Callable[[], str], *, rate_hz: float = 10.0
    ) -> None:
        """Send ``payload_fn()`` periodically (CAM-style, default 10 Hz)."""
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if self._process is not None:
            raise RuntimeError("periodic SHB already started")
        self._payload_fn = payload_fn
        self._process = PeriodicProcess(
            self.node.sim,
            1.0 / rate_hz,
            self._periodic_send,
            start_delay=self.node.rng.uniform(0, 1.0 / rate_hz),
        )

    def _periodic_send(self) -> None:
        self.send(self._payload_fn())

    def stop(self) -> None:
        """Stop periodic sending (reception keeps working)."""
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------
    def _observe(self, frame: Frame) -> None:
        payload = frame.payload
        if frame.kind is FrameKind.BEACON and isinstance(payload, _ShbEnvelope):
            self._receive(payload.message)
            return  # SHBs are fully handled here (incl. LocT update)
        if self._inner is not None:
            self._inner(frame)

    def _receive(self, message: SignedMessage) -> None:
        if not verify(message):
            self.stats.rejected_auth += 1
            return
        body: ShbBody = message.body
        if body.source_addr == self.node.address:
            return
        # Implicit beaconing: an SHB enters the LocT as a beacon would,
        # through the router's one beacon acceptor (taps, freshness, stats).
        self.node.router.receive_beacons_bulk(
            [(body.source_addr, body.pv)], self.node.sim.now
        )
        self.stats.received += 1
        for callback in self.on_receive:
            callback(self.node, body)


@dataclass(frozen=True)
class _ShbEnvelope:
    """Marks a beacon-kind frame as an SHB (vs a plain beacon)."""

    message: SignedMessage
