"""The unit-disk broadcast channel.

Delivery rule: a receiver hears a frame iff

    dist(sender, receiver) <= link_range

where ``link_range`` is the sender's transmit range for that frame, unless
the *receiver* declares a ``link_range`` override — then the override
applies.  The override models the attacker's asymmetric channel: a roadside
sniffer on a mast has line-of-sight where vehicles are obstructed, so every
link touching it — sniffing *and* injection — has the attack range, not the
vehicle-to-vehicle range ("the attacker-to-vehicle communication range can
easily be larger than the vehicle-to-vehicle one", §III-B).  A worst-NLoS
attacker is conversely limited to its short range in both directions.

Vehicle-to-vehicle links have no override and reduce to the classic unit
disk at the technology's NLoS-median range.

Unicast frames are delivered to the addressee only (if in range), but
promiscuous interfaces overhear them — radio is a broadcast medium.

Every registered radio sits in a slot of the channel's one
:class:`~repro.geonet.fleet.FleetState` (:attr:`BroadcastChannel.fleet`),
the one store of radio positions: a node's radio in its traffic or
roadside slot, any other radio (a mast, a test double) in a static slot
the channel claims on :meth:`~BroadcastChannel.register` and frees on
:meth:`~BroadcastChannel.unregister`; a mobile mast reports a move with
:meth:`~repro.geonet.fleet.FleetState.move`.

One receiver rule serves every real frame, per-frame transmit and beacon
tick alike.  A radio without an override is found by probing the fleet's
cell index (cached on the fleet's version) at the frame's range.  A
*long-eared* radio, one with a ``link_range`` override, is left out of the
probe and tested directly at its own reach; the channel keeps these radios
in :attr:`BroadcastChannel.long_eared`, in registration order.
Deliveries happen in interface *registration order* regardless of where
candidates sit in the index, which keeps the RNG draw order — and
therefore whole fixed-seed runs — independent of the lookup.  Carrier
sense (:meth:`BroadcastChannel.medium_busy`) reads one heap of in-flight
transmissions, fed by every transmit and every beacon-tick sender through
:meth:`BroadcastChannel.note_tx`.

The channel has no loss model of its own: i.i.d. and bursty link loss are
fault-layer impairments (``FaultPlan.link``), applied through the
:attr:`BroadcastChannel.link_fault` hook.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.geo.position import Position
from repro.radio.frames import Frame, FrameKind
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class RadioInterface:
    """A node's attachment point to the channel.

    ``address=None`` leaves the link-layer address to the channel, which
    assigns the next free one when the interface first registers.
    ``slot`` is the fleet slot that holds the radio's position, for a radio
    whose owner holds one (a node on its traffic or roadside slot);
    ``None`` lets the channel claim a static slot at the radio's position
    on register and free it on unregister.
    """

    def __init__(
        self,
        get_position: Callable[[], Position],
        tx_range: float,
        *,
        link_range: Optional[float] = None,
        address: Optional[int] = None,
        promiscuous: bool = False,
        slot: Optional[int] = None,
    ):
        if tx_range < 0:
            raise ValueError(f"tx_range must be non-negative, got {tx_range}")
        if link_range is not None and link_range <= 0:
            raise ValueError(f"link_range must be positive, got {link_range}")
        self.address = address
        self.get_position = get_position
        self.tx_range = float(tx_range)
        #: When set, every link toward this interface uses this range instead
        #: of the sender's transmit range (asymmetric-channel override).
        self.link_range = None if link_range is None else float(link_range)
        self.promiscuous = promiscuous
        self.handler: Optional[Callable[[Frame], None]] = None
        self.channel: Optional["BroadcastChannel"] = None
        self.slot = slot
        #: True while :attr:`slot` is a static slot the channel claimed.
        self._claimed_slot = False
        #: Channel-assigned registration sequence; fixes delivery order.
        self._reg_order = -1

    def attach(self, handler: Callable[[Frame], None]) -> None:
        """Register the receive callback for this interface."""
        self.handler = handler

    def send(
        self,
        kind: FrameKind,
        payload,
        *,
        dest_addr: Optional[int] = None,
        tx_range: Optional[float] = None,
    ) -> Frame:
        """Transmit a frame on the attached channel."""
        if self.channel is None:
            raise RuntimeError("interface is not registered on a channel")
        return self.channel.transmit(
            self, kind, payload, dest_addr=dest_addr, tx_range=tx_range
        )

    def deliver(self, frame: Frame) -> None:
        """Hand a received frame to the attached handler (if any)."""
        if self.handler is not None:
            self.handler(frame)


@dataclass
class ChannelStats:
    """Aggregate channel counters for diagnostics and overhead accounting."""

    frames_sent: int = 0
    frames_delivered: int = 0
    #: Receptions eaten by the fault-injection ``link_fault`` hook.
    frames_fault_dropped: int = 0
    unicast_lost: int = 0
    #: Candidate receivers examined across all transmits: registered
    #: radios inside a frame's search disc, and the cell-level candidates
    #: of each beacon tick (the cost the cell index shrinks from N per
    #: frame to ~k).
    receiver_candidates: int = 0
    sent_by_kind: Dict[FrameKind, int] = field(default_factory=dict)
    delivered_by_kind: Dict[FrameKind, int] = field(default_factory=dict)

    def record_sent(self, kind: FrameKind) -> None:
        self.frames_sent += 1
        self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + 1

    def record_sent_batch(self, kind: FrameKind, count: int) -> None:
        """Batch counterpart of :meth:`record_sent` (batched beacon tick)."""
        self.frames_sent += count
        self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + count

    def record_delivered(self, kind: FrameKind, count: int) -> None:
        self.frames_delivered += count
        self.delivered_by_kind[kind] = self.delivered_by_kind.get(kind, 0) + count

    @property
    def mean_receivers_per_frame(self) -> float:
        """Average deliveries per transmitted frame."""
        if self.frames_sent == 0:
            return 0.0
        return self.frames_delivered / self.frames_sent

    @property
    def mean_candidates_per_frame(self) -> float:
        """Average candidate receivers examined per transmitted frame."""
        if self.frames_sent == 0:
            return 0.0
        return self.receiver_candidates / self.frames_sent


class BroadcastChannel:
    """The shared medium all radio interfaces are registered on.

    Every registered radio's position lives in a slot of :attr:`fleet`;
    the traffic updates vehicle slots in place, a mobile mast moves its
    static slot with :meth:`~repro.geonet.fleet.FleetState.move`.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        *,
        base_latency: float = 5e-4,
        latency_jitter: float = 2e-4,
    ):
        # Imported here: repro.geonet imports this module.
        from repro.geonet.fleet import FleetState

        self._sim = sim
        self._rng = streams.get("channel")
        self.base_latency = base_latency
        self.latency_jitter = latency_jitter
        #: Registered interfaces by address.
        self._by_addr: Dict[int, RadioInterface] = {}
        self._next_reg_order = 0
        #: Link-layer addresses for interfaces registered without one.
        self._addresses = itertools.count(1)
        self._obstructions: List[Callable[[Position, Position], bool]] = []
        #: Heap of (end_time, x, y, range) of in-flight transmissions, per
        #: frame and per beacon-tick sender, for carrier sense; expired
        #: entries are popped from the top lazily.
        self._active_tx: List[tuple] = []
        #: The one store of radio positions: every registered interface
        #: sits in one of its slots.
        self.fleet = FleetState()
        #: Registered radios with a ``link_range`` override, in
        #: registration order: each is tested directly at its own reach,
        #: never found by the cell probe.
        self.long_eared: List[RadioInterface] = []
        self.stats = ChannelStats()
        #: Observability hooks fired when a unicast frame misses its
        #: addressee — ``(frame, why)`` with ``why`` one of
        #: ``"out-of-range"`` (addressee not among the receivers) or
        #: ``"faulted"`` (addressee's copy dropped by :attr:`link_fault`).
        #: Purely passive: the list is empty by default and callbacks must
        #: not mutate protocol state.
        self.on_unicast_lost: List[Callable[[Frame, str], None]] = []
        #: Optional fault-injection predicate ``(sender_addr, receiver_addr)
        #: -> drop?`` consulted per receiver that range and obstructions let
        #: through.  None (the default) costs nothing on the hot path;
        #: installed by :class:`~repro.faults.injector.FaultInjector` when
        #: the plan has link impairments.  A dropped addressee fires ``on_unicast_lost``
        #: with ``why="faulted"``.
        self.link_fault: Optional[Callable[[int, int], bool]] = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, iface: RadioInterface) -> None:
        """Attach an interface to the medium.

        An interface without an address gets the channel's next one
        (1, 2, ... in registration order); a re-registered interface keeps
        the address it has.  An interface without a fleet slot gets a
        static slot at its current position.
        """
        if iface.address is None:
            iface.address = next(self._addresses)
        if iface.address in self._by_addr:
            raise ValueError(f"address {iface.address} already registered")
        fleet = self.fleet
        if iface.slot is None:
            pos = iface.get_position()
            iface.slot = fleet.add(x=pos.x, y=pos.y, tx_range=iface.tx_range)
            iface._claimed_slot = True
        fleet.ifaces[iface.slot] = iface
        iface.channel = self
        iface._reg_order = self._next_reg_order
        self._next_reg_order += 1
        self._by_addr[iface.address] = iface
        if iface.link_range is not None:
            self.long_eared.append(iface)

    def unregister(self, iface: RadioInterface) -> None:
        """Detach an interface (e.g. a vehicle leaving the road).

        A static slot the channel claimed is freed; a node's own slot stays
        with the node, which may register the radio again (a reboot).
        """
        if iface.channel is not self:
            return
        del self._by_addr[iface.address]
        if iface._claimed_slot:
            self.fleet.remove(iface.slot)
            iface.slot = None
            iface._claimed_slot = False
        if iface.link_range is not None:
            self.long_eared.remove(iface)
        iface.channel = None

    @property
    def interfaces(self) -> tuple:
        """A snapshot of registered interfaces, in registration order."""
        return tuple(
            sorted(self._by_addr.values(), key=lambda iface: iface._reg_order)
        )

    def add_obstruction(
        self, blocks: Callable[[Position, Position], bool]
    ) -> None:
        """Register a link obstruction predicate (True means link blocked).

        Every delivery path evaluates obstructions through
        :meth:`block_mask`.  A predicate may expose ``blocks_many(xs, ys,
        src, dst) -> bool ndarray`` over labelled link endpoints (see
        :meth:`block_mask`); it is then called once per mask.  A plain
        ``(Position, Position)`` predicate is called once per link.
        """
        self._obstructions.append(blocks)

    @property
    def has_obstructions(self) -> bool:
        """True when at least one obstruction predicate is registered."""
        return bool(self._obstructions)

    def is_link_blocked(
        self, tx_position: Position, receiver: RadioInterface
    ) -> bool:
        """Public obstruction check for a single (tx position, receiver) link."""
        rx = receiver.get_position()
        return bool(
            self.block_mask(
                np.array([tx_position.x, rx.x]),
                np.array([tx_position.y, rx.y]),
                [0],
                [1],
            )[0]
        )

    def block_mask(self, xs, ys, src, dst) -> np.ndarray:
        """The one obstruction evaluator: a blocked-mask over links.

        Endpoint *i* sits at ``(xs[i], ys[i])``; link *k* runs from
        endpoint ``src[k]`` to endpoint ``dst[k]``, so an endpoint shared
        by many links is given once.  Returns one bool per link (True =
        blocked).  Predicates that provide ``blocks_many`` take the
        endpoint arrays in one call; plain ``(Position, Position) ->
        bool`` predicates are asked per link, only for links still
        unblocked.
        """
        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        blocked = np.zeros(src.size, dtype=bool)
        scalar_preds = []
        for blocks in self._obstructions:
            blocks_many = getattr(blocks, "blocks_many", None)
            if blocks_many is not None:
                blocked |= np.asarray(blocks_many(xs, ys, src, dst), dtype=bool)
            else:
                scalar_preds.append(blocks)
        if scalar_preds:
            for k in np.flatnonzero(~blocked):
                i = src[k]
                j = dst[k]
                a = Position(float(xs[i]), float(ys[i]))
                b = Position(float(xs[j]), float(ys[j]))
                if any(blocks(a, b) for blocks in scalar_preds):
                    blocked[k] = True
        return blocked

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def note_tx(self, x: float, y: float, tx_range: float) -> None:
        """Record a transmission from ``(x, y)`` starting now, for carrier
        sense: it occupies the medium within ``tx_range`` for
        ``base_latency`` seconds.  Expired entries are dropped first."""
        now = self._sim.now
        active = self._active_tx
        while active and active[0][0] <= now:
            heapq.heappop(active)
        heapq.heappush(active, (now + self.base_latency, x, y, tx_range))

    def transmit(
        self,
        sender: RadioInterface,
        kind: FrameKind,
        payload,
        *,
        dest_addr: Optional[int] = None,
        tx_range: Optional[float] = None,
    ) -> Frame:
        """Send a frame and schedule its deliveries.

        Returns the frame (so callers, e.g. attackers, can track it).
        """
        tx_pos = sender.get_position()
        eff_range = sender.tx_range if tx_range is None else float(tx_range)
        frame = Frame(
            kind=kind,
            sender_addr=sender.address,
            payload=payload,
            tx_position=tx_pos,
            tx_range=eff_range,
            tx_time=self._sim.now,
            dest_addr=dest_addr,
        )
        self.stats.record_sent(kind)
        self.note_tx(tx_pos.x, tx_pos.y, eff_range)
        receivers = self._receivers_for(frame, sender)
        dest_addr = frame.dest_addr
        if dest_addr is not None and not any(
            iface.address == dest_addr for iface in receivers
        ):
            self.stats.unicast_lost += 1
            for hook in self.on_unicast_lost:
                hook(frame, "out-of-range")
        delivered = 0
        # Hot loop: one scheduled delivery per receiver.  The jitter draw is
        # ``uniform(0, j)`` inlined as ``j * random()`` (bit-identical: the
        # stdlib computes ``0 + (j - 0) * random()``), consuming exactly one
        # draw per receiver as before.
        base = self.base_latency
        jitter = self.latency_jitter
        rng_random = self._rng.random
        link_fault = self.link_fault
        schedule_fire = self._sim.schedule_fire
        sender_addr = sender.address
        for iface in receivers:
            if link_fault is not None and link_fault(sender_addr, iface.address):
                self.stats.frames_fault_dropped += 1
                # An addressee eaten by the fault layer is the second
                # silent-unicast-loss site.
                if dest_addr is not None and iface.address == dest_addr:
                    for hook in self.on_unicast_lost:
                        hook(frame, "faulted")
                continue
            delivered += 1
            schedule_fire(base + jitter * rng_random(), iface.deliver, frame)
        self.stats.record_delivered(kind, delivered)
        return frame

    def _in_disc(self, position: Position, radius: float) -> List[tuple]:
        """``(reg_order, iface)`` for every registered interface within
        ``radius`` of ``position``, in cell-key order.  A radio powered off
        mid-outage keeps its node's slot but is skipped: it is off the
        channel, and a slot without a radio (a vehicle with no node) holds
        none."""
        ifaces = self.fleet.ifaces
        found = []
        append = found.append
        for slot, _d_sq in self.fleet.near(position.x, position.y, radius):
            iface = ifaces[slot]
            if iface is not None and iface.channel is self:
                append((iface._reg_order, iface))
        return found

    def _receivers_for(
        self, frame: Frame, sender: RadioInterface
    ) -> List[RadioInterface]:
        """The one receiver rule: the cell probe at the frame's range finds
        every radio without an override; each long-eared radio is tested
        directly at its own reach.  ``receiver_candidates`` counts the
        registered radios inside the probe disc."""
        position = frame.tx_position
        candidates = self._in_disc(position, frame.tx_range)
        self.stats.receiver_candidates += len(candidates)
        hits = [
            hit
            for hit in candidates
            if hit[1].link_range is None and hit[1] is not sender
        ]
        if self.long_eared:
            x = position.x
            y = position.y
            fx = self.fleet.x
            fy = self.fleet.y
            for iface in self.long_eared:
                dx = fx.item(iface.slot) - x
                dy = fy.item(iface.slot) - y
                reach = iface.link_range
                if dx * dx + dy * dy <= reach * reach and iface is not sender:
                    hits.append((iface._reg_order, iface))
        # reg_order is unique, so the sort never compares interfaces.
        hits.sort()
        dest_addr = frame.dest_addr
        if dest_addr is None:
            receivers = [iface for _order, iface in hits]
        else:
            receivers = [
                iface
                for _order, iface in hits
                if iface.address == dest_addr or iface.promiscuous
            ]
        if self._obstructions and receivers:
            # One mask over the sender (endpoint 0) and every receiver.
            points = [position]
            points += [iface.get_position() for iface in receivers]
            n = len(receivers)
            blocked = self.block_mask(
                np.array([p.x for p in points]),
                np.array([p.y for p in points]),
                np.zeros(n, dtype=np.intp),
                np.arange(1, n + 1),
            )
            if blocked.any():
                receivers = [
                    iface
                    for iface, b in zip(receivers, blocked.tolist())
                    if not b
                ]
        return receivers

    def neighbors_within(
        self, position: Position, radius: float
    ) -> List[RadioInterface]:
        """Registered interfaces within ``radius`` of ``position``.

        Served from the same cell index the transmit path uses; results
        come back in registration order.  This is the query the analysis
        layer reuses for proximity lookups (e.g. ``World.nodes_near``).
        """
        found = self._in_disc(position, radius)
        found.sort()
        return [iface for _order, iface in found]

    def medium_busy(self, position: Position) -> bool:
        """Carrier sense: is a transmission audible at ``position`` right now?

        CSMA is what guarantees one forwarder per CBF contention round in
        real radios: a contender whose timer expires during a peer's
        transmission defers, receives the duplicate, and cancels.

        ``_active_tx`` is a heap ordered by end time, so expiring old
        transmissions is a few O(log n) pops instead of rebuilding the list
        on every call.
        """
        now = self._sim.now
        active = self._active_tx
        while active and active[0][0] <= now:
            heapq.heappop(active)
        for _end, x, y, tx_range in active:
            dx = position.x - x
            dy = position.y - y
            if dx * dx + dy * dy <= tx_range * tx_range:
                return True
        return False
