"""Contention-Based Forwarding (CBF) — intra-area flooding.

On first reception of a GeoBroadcast packet, a node inside the destination
area buffers it and starts a contention timer

    TO = TO_MIN                                        if DIST > DIST_MAX
    TO = TO_MAX + (TO_MIN - TO_MAX)/DIST_MAX * DIST    otherwise

where DIST is the distance to the *previous sender*.  Nodes further from the
sender time out earlier and re-broadcast; hearing a duplicate (same source
address and sequence number) before the timer fires cancels the buffered
copy.  The standard does **not** check who sent the duplicate, from where,
or with what hop count — the three vulnerabilities the intra-area blockage
attack combines.

The §V mitigation is the optional RHL-drop check: a "duplicate" whose RHL is
more than ``rhl_drop_threshold`` below the RHL of the first-received copy is
not accepted as a duplicate (a legitimate peer's re-broadcast differs by one
hop; the attacker's RHL=1 rewrite differs by many).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.geo.position import Position
from repro.geonet.checks import duplicate_rhl_plausible
from repro.geonet.config import GeoNetConfig
from repro.geonet.packets import GeoBroadcastPacket, PacketId
from repro.observability.ledger import reasons
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle


def contention_timeout(distance: float, config: GeoNetConfig) -> float:
    """The CBF buffering timeout for a given distance to the previous sender."""
    if distance < 0:
        raise ValueError("distance must be non-negative")
    if distance > config.dist_max:
        return config.to_min
    return config.to_max + (config.to_min - config.to_max) / config.dist_max * distance


#: Bound on consecutive carrier-sense backoffs, so a pathologically busy
#: medium cannot park a packet forever.
_MAX_CSMA_DEFERS = 20

#: Slack added to a packet's lifetime before its duplicate-detection entry
#: may be dropped.  Generous relative to real copy arrival (forwarders check
#: ``expired()`` before re-emitting and CSMA defers are bounded at
#: ~20 × 1.5 ms), so expiring the entry can never un-suppress a copy that
#: could actually still arrive.
_DONE_GRACE = 1.0

#: How often ``handle_broadcast`` sweeps expired duplicate-detection
#: entries.  Purely a cost/latency trade-off: entries are unreachable the
#: moment their packet is expired either way.
_DONE_SWEEP_INTERVAL = 5.0


@dataclass
class _BufferedPacket:
    packet: GeoBroadcastPacket
    first_rhl: int
    forward_rhl: int
    timer: EventHandle
    buffered_at: float
    defers: int = 0
    #: Plausible duplicates overheard while contending (S-FoT+ cancels
    #: only after ``sfot_dup_threshold`` of them; stock CBF after one).
    dup_heard: int = 0


@dataclass
class CbfStats:
    """Counters for CBF behaviour across a node's lifetime."""

    first_receptions: int = 0
    buffered: int = 0
    rebroadcasts: int = 0
    suppressed_by_duplicate: int = 0
    rhl_exhausted: int = 0
    expired_in_buffer: int = 0
    late_duplicates_ignored: int = 0
    rhl_check_rejections: int = 0
    csma_defers: int = 0
    #: Copies abandoned because the medium never cleared across the whole
    #: CSMA defer budget (terminal ledger outcome ``cbf-defer-exhausted``).
    csma_defer_exhaustions: int = 0
    #: Re-broadcasts withheld by the reactive DCC gate.
    dcc_suppressed: int = 0
    #: S-FoT+ only: first receptions outside the contention sector
    #: (delivered but never buffered).
    sector_skips: int = 0
    #: S-FoT+ only: duplicates heard while below the cancel threshold.
    dup_below_threshold: int = 0


class CbfForwarder:
    """Per-node CBF state machine.

    The owner provides two callbacks: ``deliver`` (first reception of a
    packet — pass it up the stack) and ``broadcast`` (re-emit the packet with
    the given RHL).
    """

    def __init__(
        self,
        sim: Simulator,
        config: GeoNetConfig,
        get_position: Callable[[], Position],
        deliver: Callable[[GeoBroadcastPacket], None],
        broadcast: Callable[[GeoBroadcastPacket, int], None],
        rng=None,
        medium_busy: Optional[Callable[[], bool]] = None,
        ledger=None,
        addr: int = -1,
        dcc=None,
    ):
        self._sim = sim
        self.config = config
        self._get_position = get_position
        self._deliver = deliver
        self._broadcast = broadcast
        self._rng = rng
        #: Optional per-node :class:`~repro.geonet.dcc.DccGate`; when set,
        #: re-broadcasts that win contention still pass the access-layer
        #: rate gate before hitting the air.
        self._dcc = dcc
        #: Optional PacketLedger plus the owner's address for it.
        self._ledger = ledger
        self._addr = addr
        #: Carrier-sense hook: when set and True at timer expiry, the
        #: re-broadcast defers briefly (CSMA) — the deferring contender then
        #: hears the in-flight duplicate and cancels like real radios do.
        self._medium_busy = medium_busy
        self._buffers: Dict[PacketId, _BufferedPacket] = {}
        #: Duplicate-detection memory: packet id -> simulation time after
        #: which the entry may be swept.  Keyed on the packet's own lifetime
        #: (plus grace), so the set is bounded by the packets *currently
        #: alive* in the network instead of growing for the whole run.
        self._done: Dict[PacketId, float] = {}
        self._next_done_sweep = _DONE_SWEEP_INTERVAL
        self.stats = CbfStats()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_buffered(self, packet_id: PacketId) -> bool:
        """Whether the packet is currently contending."""
        return packet_id in self._buffers

    def has_processed(self, packet_id: PacketId) -> bool:
        """Whether this node has already received the packet."""
        return packet_id in self._done or packet_id in self._buffers

    def mark_done(
        self, packet_id: PacketId, *, expires_at: Optional[float] = None
    ) -> None:
        """Record a packet as processed without buffering it.

        Used for deliveries that cannot be forwarded (exhausted hop budget).
        ``expires_at`` is the packet's lifetime end when the caller knows it;
        without it the entry is conservatively kept for the protocol's
        default lifetime.  An already-known entry only ever extends.
        """
        if expires_at is None:
            expires_at = self._sim.now + self.config.default_lifetime
        drop_after = expires_at + _DONE_GRACE
        previous = self._done.get(packet_id)
        if previous is None or drop_after > previous:
            self._done[packet_id] = drop_after

    def _remember_done(self, packet: GeoBroadcastPacket) -> None:
        """Mark ``packet`` done until its own lifetime (plus grace) is up."""
        body = packet.body
        self.mark_done(
            packet.packet_id, expires_at=body.created_at + body.lifetime
        )

    def _sweep_done(self, now: float) -> None:
        """Drop duplicate-detection entries whose packets cannot recur."""
        if now < self._next_done_sweep:
            return
        self._next_done_sweep = now + _DONE_SWEEP_INTERVAL
        dead = [pid for pid, drop_after in self._done.items() if now > drop_after]
        for pid in dead:
            del self._done[pid]

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------
    def handle_broadcast(self, packet: GeoBroadcastPacket) -> None:
        """Process a GeoBroadcast heard on the channel (node is in-area)."""
        now = self._sim.now
        self._sweep_done(now)
        packet_id = packet.packet_id
        buffered = self._buffers.get(packet_id)
        if buffered is not None:
            self._handle_duplicate(buffered, packet)
            return
        if packet_id in self._done:
            self.stats.late_duplicates_ignored += 1
            return
        self._first_reception(packet, now)

    def _handle_duplicate(
        self, buffered: _BufferedPacket, duplicate: GeoBroadcastPacket
    ) -> None:
        if self.config.rhl_check and not duplicate_rhl_plausible(
            buffered.first_rhl, duplicate.rhl, self.config.rhl_drop_threshold
        ):
            # Implausibly steep RHL drop: a legitimate peer one hop on would
            # differ by ~1.  Keep contending.
            self.stats.rhl_check_rejections += 1
            return
        self._cancel_buffered(buffered)

    def _cancel_buffered(self, buffered: _BufferedPacket) -> None:
        """Duplicate suppression: stop contending for this copy."""
        buffered.timer.cancel()
        del self._buffers[buffered.packet.packet_id]
        self._remember_done(buffered.packet)
        self.stats.suppressed_by_duplicate += 1
        self._ledger_drop(buffered.packet, reasons.CBF_SUPPRESSED)

    def _first_reception(self, packet: GeoBroadcastPacket, now: float) -> None:
        self.stats.first_receptions += 1
        self._deliver(packet)
        if packet.expired(now):
            self._remember_done(packet)
            self._ledger_drop(packet, reasons.LIFETIME_EXPIRED)
            return
        forward_rhl = packet.rhl - 1
        if forward_rhl <= 0:
            self.stats.rhl_exhausted += 1
            self._remember_done(packet)
            self._ledger_drop(packet, reasons.RHL_EXHAUSTED)
            return
        distance = self._get_position().distance_to(packet.sender_position)
        timeout = contention_timeout(distance, self.config)
        if self._rng is not None and self.config.cbf_timer_jitter > 0:
            # MAC access / processing jitter; breaks equal-distance ties.
            timeout += self._rng.uniform(0, self.config.cbf_timer_jitter)
        timer = self._sim.schedule(timeout, self._contention_expired, packet.packet_id)
        self._buffers[packet.packet_id] = _BufferedPacket(
            packet=packet,
            first_rhl=packet.rhl,
            forward_rhl=forward_rhl,
            timer=timer,
            buffered_at=now,
        )
        self.stats.buffered += 1

    # ------------------------------------------------------------------
    # origination / timer expiry
    # ------------------------------------------------------------------
    def originate(self, packet: GeoBroadcastPacket) -> None:
        """Broadcast a packet this node sources (or injects into the area).

        The node counts as having received its own packet.
        """
        self._remember_done(packet)
        self._ledger_hop(packet, "cbf-originate")
        self._broadcast(packet, packet.rhl)
        self.stats.rebroadcasts += 1

    def _contention_expired(self, packet_id: PacketId) -> None:
        buffered = self._buffers.get(packet_id)
        if buffered is None:
            return
        if self._medium_busy is not None and self._medium_busy():
            if buffered.defers < _MAX_CSMA_DEFERS:
                # Channel busy: back off one airtime and listen — if the
                # ongoing transmission is a duplicate of this packet, it
                # will cancel us.
                buffered.defers += 1
                delay = 0.001
                if self._rng is not None:
                    delay += self._rng.uniform(0, 0.0005)
                buffered.timer = self._sim.schedule(
                    delay, self._contention_expired, packet_id
                )
                self.stats.csma_defers += 1
                return
            # Carrier sense never cleared across the entire defer budget.
            # A real MAC abandons the frame after its retry limit rather
            # than jamming a saturated channel; account the copy with its
            # own terminal outcome instead of force-broadcasting (or, as an
            # earlier revision did, letting it vanish from the ledger).
            del self._buffers[packet_id]
            self._remember_done(buffered.packet)
            self.stats.csma_defer_exhaustions += 1
            self._ledger_drop(buffered.packet, reasons.CBF_DEFER_EXHAUSTED)
            return
        del self._buffers[packet_id]
        self._remember_done(buffered.packet)
        if buffered.packet.expired(self._sim.now):
            self.stats.expired_in_buffer += 1
            self._ledger_drop(buffered.packet, reasons.EXPIRED_IN_BUFFER)
            return
        if self._dcc is not None and not self._dcc.allow(self._sim.now):
            # Won contention but the access layer is rate-limiting this
            # station: the copy is withheld, exactly like a DCC queue drop.
            self.stats.dcc_suppressed += 1
            self._ledger_drop(buffered.packet, reasons.DCC_SUPPRESSED)
            return
        self._ledger_hop(buffered.packet, "cbf-rebroadcast")
        self._broadcast(buffered.packet, buffered.forward_rhl)
        self.stats.rebroadcasts += 1

    # ------------------------------------------------------------------
    # ledger hooks (no-ops without a ledger)
    # ------------------------------------------------------------------
    def _ledger_drop(self, packet: GeoBroadcastPacket, reason: str) -> None:
        if self._ledger is not None:
            self._ledger.dropped(
                "gbc",
                packet.packet_id,
                self._sim.now,
                self._addr,
                reason,
            )

    def _ledger_hop(self, packet: GeoBroadcastPacket, action: str) -> None:
        if self._ledger is not None:
            self._ledger.hop(
                "gbc",
                packet.packet_id,
                self._sim.now,
                self._addr,
                action,
            )

    # ------------------------------------------------------------------
    # teardown / power state
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Cancel all contention timers (node leaving the simulation)."""
        for buffered in self._buffers.values():
            buffered.timer.cancel()
        self._buffers.clear()

    def power_off(self) -> None:
        """Fault-injected outage: contending copies die with the power.

        Unlike :meth:`shutdown` the copies are accounted ``node-down`` —
        a rebooting node re-enters the network, so these losses must stay
        attributable.  Stats survive for the run's aggregate totals.
        """
        for buffered in self._buffers.values():
            buffered.timer.cancel()
            self._ledger_drop(buffered.packet, reasons.NODE_DOWN)
        self._buffers.clear()

    def reset_state(self, now: float) -> None:
        """Reboot: duplicate-detection memory is volatile RAM — wipe it."""
        self._done.clear()
        self._next_done_sweep = now + _DONE_SWEEP_INTERVAL


class SfotCbfForwarder(CbfForwarder):
    """S-FoT+ — the sectorial CBF variant of Amador et al. (arXiv
    2403.11271), selected with ``GeoNetConfig.cbf_variant = "sfot+"``.

    Two deviations from stock CBF, both aimed at wasted and hijackable
    contention rounds:

    * **Sectorial contention.**  On first reception, a node contends only
      if it lies inside a sector of ``sfot_sector_deg`` degrees centred on
      the previous-sender -> destination-center direction.  Receivers
      behind or beside the sender still *deliver* the packet but never
      buffer it — their re-broadcast would push the flood away from the
      area.  (With the sender at the area center the flood is already
      home; every receiver contends, as in the original.)
    * **Duplicate threshold.**  A buffered copy is cancelled only after
      ``sfot_dup_threshold`` plausible duplicates instead of the first.
      This is the "+" refinement — and it is directly relevant to the
      paper's intra-area blockage attack, whose suppression primitive is a
      *single* replayed duplicate per contender.

    RNG discipline matches the base class: the sector test and duplicate
    counting draw nothing, so ``cbf_variant="cbf"`` runs are untouched and
    S-FoT+ runs stay deterministic per seed.
    """

    def _in_contention_sector(self, packet: GeoBroadcastPacket) -> bool:
        sender = packet.sender_position
        center = packet.area.center
        own = self._get_position()
        tx = center.x - sender.x
        ty = center.y - sender.y
        t_sq = tx * tx + ty * ty
        if t_sq <= 1e-12:
            return True
        vx = own.x - sender.x
        vy = own.y - sender.y
        v_sq = vx * vx + vy * vy
        if v_sq <= 1e-12:
            return True
        cos_angle = (tx * vx + ty * vy) / math.sqrt(t_sq * v_sq)
        half_rad = math.radians(self.config.sfot_sector_deg / 2.0)
        return cos_angle >= math.cos(half_rad)

    def _first_reception(self, packet: GeoBroadcastPacket, now: float) -> None:
        if not self._in_contention_sector(packet):
            self.stats.first_receptions += 1
            self.stats.sector_skips += 1
            self._deliver(packet)
            self._remember_done(packet)
            return
        super()._first_reception(packet, now)

    def _handle_duplicate(
        self, buffered: _BufferedPacket, duplicate: GeoBroadcastPacket
    ) -> None:
        if self.config.rhl_check and not duplicate_rhl_plausible(
            buffered.first_rhl, duplicate.rhl, self.config.rhl_drop_threshold
        ):
            self.stats.rhl_check_rejections += 1
            return
        buffered.dup_heard += 1
        if buffered.dup_heard < self.config.sfot_dup_threshold:
            self.stats.dup_below_threshold += 1
            return
        self._cancel_buffered(buffered)
