"""The per-run packet ledger and its drop-reason taxonomy.

Every *originated* application packet (GeoBroadcast payloads; beacons are
infrastructure and excluded) is registered once and resolved to exactly
one terminal outcome:

``delivered``
    at least one in-area / addressee delivery happened;
``gf-no-progress-expired``
    GF found no forward-progress neighbor and the packet expired while
    waiting in the recheck loop;
``unreachable-next-hop``
    a forwarder transmitted the frame link-layer unicast but the addressee
    was out of range — the silent loss the interception attack
    manufactures;
``rhl-exhausted``
    the remaining hop limit reached zero before the destination;
``cbf-suppressed``
    a buffered CBF copy was cancelled by a duplicate (the blockage
    attack's lever);
``expired-in-buffer``
    the CBF contention timer outlived the packet's lifetime;
``lifetime-expired``
    the packet's lifetime elapsed anywhere else on the path;
``faulted-link-loss``
    the fault-injection layer's link impairment (i.i.d. or Gilbert–Elliott
    burst loss) ate the frame carrying the packet to its addressee;
``node-down``
    a fault-injected outage killed the node holding the packet (buffered
    CBF copies, pending GF rechecks) or the packet's unicast addressee was
    powered off;
``in-flight-at-end``
    the run ended (or the carrying node shut down) with the packet still
    unresolved — the conservation bucket that keeps outcome counts summing
    to originations no matter when the simulation stops.

A packet many copies of which die (a CBF flood suppresses dozens of
redundant copies while still covering the area) is still *one* packet:
``delivered`` wins over any drop, and among drops the chronologically
first one is the packet's fate.  The per-copy tallies remain available in
:attr:`PacketRecord.drops` for copy-level analyses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class reasons:
    """The drop-reason taxonomy (terminal outcomes)."""

    DELIVERED = "delivered"
    GF_NO_PROGRESS_EXPIRED = "gf-no-progress-expired"
    UNREACHABLE_NEXT_HOP = "unreachable-next-hop"
    RHL_EXHAUSTED = "rhl-exhausted"
    CBF_SUPPRESSED = "cbf-suppressed"
    CBF_DEFER_EXHAUSTED = "cbf-defer-exhausted"
    DCC_SUPPRESSED = "dcc-suppressed"
    EXPIRED_IN_BUFFER = "expired-in-buffer"
    LIFETIME_EXPIRED = "lifetime-expired"
    FAULTED_LINK_LOSS = "faulted-link-loss"
    NODE_DOWN = "node-down"
    IN_FLIGHT_AT_END = "in-flight-at-end"


#: Non-delivered terminal outcomes, in reporting order.
DROP_REASONS: Tuple[str, ...] = (
    reasons.GF_NO_PROGRESS_EXPIRED,
    reasons.UNREACHABLE_NEXT_HOP,
    reasons.RHL_EXHAUSTED,
    reasons.CBF_SUPPRESSED,
    reasons.CBF_DEFER_EXHAUSTED,
    reasons.DCC_SUPPRESSED,
    reasons.EXPIRED_IN_BUFFER,
    reasons.LIFETIME_EXPIRED,
    reasons.FAULTED_LINK_LOSS,
    reasons.NODE_DOWN,
    reasons.IN_FLIGHT_AT_END,
)

#: All terminal outcomes, in reporting order (delivered first).
OUTCOMES: Tuple[str, ...] = (reasons.DELIVERED,) + DROP_REASONS

#: A ledger key: the packet kind (e.g. "gbc") plus the protocol packet id.
#: Each packet type numbers its own sequence per node, so kinds are
#: separate namespaces that must not share keys.
LedgerKey = Tuple[str, tuple]


@dataclass(frozen=True)
class JourneyEvent:
    """One per-hop observation of a tracked packet (journeys mode only)."""

    time: float
    node_addr: int
    action: str
    detail: str = ""

    def line(self) -> str:
        extra = f"  {self.detail}" if self.detail else ""
        return f"{self.time:10.4f}s  {self.action:<22} @node {self.node_addr}{extra}"


@dataclass
class PacketRecord:
    """The lifecycle of one originated packet."""

    kind: str
    packet_id: tuple
    source_addr: int
    originated_at: float
    deliveries: int = 0
    first_delivery: Optional[float] = None
    #: Copy-level drop tallies (a flood can lose many redundant copies).
    drops: Counter = field(default_factory=Counter)
    #: ``(time, reason)`` of the chronologically first drop.
    first_drop: Optional[Tuple[float, str]] = None
    #: Per-hop events; populated only when the ledger records journeys.
    events: Optional[List[JourneyEvent]] = None

    @property
    def outcome(self) -> str:
        """The packet's single terminal outcome (delivered > first drop)."""
        if self.deliveries > 0:
            return reasons.DELIVERED
        if self.first_drop is not None:
            return self.first_drop[1]
        return reasons.IN_FLIGHT_AT_END


class PacketLedger:
    """Passive per-run packet-lifecycle accounting.

    Instrumented protocol code reports ``originated`` / ``delivered`` /
    ``dropped`` (and, with ``journeys=True``, per-hop ``hop``) events.
    Events for packets that were never registered — beacons, an
    attacker's replays of unknown traffic — are ignored, which
    is what scopes the ledger to application packets without the protocol
    layers having to know about workloads.
    """

    def __init__(self, *, journeys: bool = False):
        self.journeys = journeys
        self._records: Dict[LedgerKey, PacketRecord] = {}

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------
    def originated(
        self, kind: str, packet_id: tuple, time: float, source_addr: int
    ) -> PacketRecord:
        """Register a freshly-sourced packet (exactly once per packet)."""
        key = (kind, packet_id)
        record = self._records.get(key)
        if record is None:
            record = PacketRecord(
                kind=kind,
                packet_id=packet_id,
                source_addr=source_addr,
                originated_at=time,
                events=[] if self.journeys else None,
            )
            self._records[key] = record
        if record.events is not None:
            record.events.append(
                JourneyEvent(time=time, node_addr=source_addr, action="originated")
            )
        return record

    def delivered(
        self, kind: str, packet_id: tuple, time: float, node_addr: int
    ) -> None:
        """Record a delivery (any one delivery makes the packet delivered)."""
        record = self._records.get((kind, packet_id))
        if record is None:
            return
        record.deliveries += 1
        if record.first_delivery is None:
            record.first_delivery = time
        if record.events is not None:
            record.events.append(
                JourneyEvent(time=time, node_addr=node_addr, action="delivered")
            )

    def dropped(
        self,
        kind: str,
        packet_id: tuple,
        time: float,
        node_addr: int,
        reason: str,
        detail: str = "",
    ) -> None:
        """Record one copy of the packet dying at ``node_addr``."""
        record = self._records.get((kind, packet_id))
        if record is None:
            return
        record.drops[reason] += 1
        if record.first_drop is None or time < record.first_drop[0]:
            record.first_drop = (time, reason)
        if record.events is not None:
            record.events.append(
                JourneyEvent(
                    time=time,
                    node_addr=node_addr,
                    action=f"dropped:{reason}",
                    detail=detail,
                )
            )

    def hop(
        self,
        kind: str,
        packet_id: tuple,
        time: float,
        node_addr: int,
        action: str,
        detail: str = "",
    ) -> None:
        """Record a non-terminal per-hop event (journeys mode only)."""
        if not self.journeys:
            return
        record = self._records.get((kind, packet_id))
        if record is None or record.events is None:
            return
        record.events.append(
            JourneyEvent(time=time, node_addr=node_addr, action=action, detail=detail)
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def tracks(self, kind: str, packet_id: tuple) -> bool:
        """Whether the packet is registered with the ledger."""
        return (kind, packet_id) in self._records

    def record(self, kind: str, packet_id: tuple) -> Optional[PacketRecord]:
        """The record for one packet, or None."""
        return self._records.get((kind, packet_id))

    def records(self) -> List[PacketRecord]:
        """All records, in origination order."""
        return list(self._records.values())

    def journey(self, kind: str, packet_id: tuple) -> List[JourneyEvent]:
        """The per-hop events of one packet (empty unless journeys mode)."""
        record = self._records.get((kind, packet_id))
        if record is None or record.events is None:
            return []
        return list(record.events)

    def outcome_totals(self) -> Dict[str, int]:
        """Terminal-outcome counts over all tracked packets.

        The conservation invariant holds by construction: every record has
        exactly one outcome, so the counts sum to the origination count.
        """
        totals: Counter = Counter(r.outcome for r in self._records.values())
        return {
            outcome: totals[outcome] for outcome in OUTCOMES if totals[outcome]
        }

    def copy_drop_totals(self) -> Dict[str, int]:
        """Copy-level drop tallies summed over all tracked packets."""
        totals: Counter = Counter()
        for record in self._records.values():
            totals.update(record.drops)
        return dict(totals)
