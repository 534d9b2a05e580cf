"""The GeoNetworking location table (LocT).

Every node stores the position vectors of the neighbors it has heard
beacons from, as ``LocTE (addr, PV, TTL)`` per the paper.  Entries expire
``ttl`` seconds after their last refresh (default 20 s).

The table trusts whatever authenticated beacon it is given: EN 302 636-4-1
performs no distance-plausibility check on reception, which is the second
GF vulnerability the paper identifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.geo.position import Position, PositionVector


@dataclass
class LocationTableEntry:
    """One LocTE: address, PV and expiry bookkeeping.

    Every entry comes from a beacon, so every entry is a one-hop neighbor
    GF may pick as a next hop.  The inter-area attack works precisely
    because a *replayed* beacon is still a beacon — the victim "labels V3
    as a neighbor".
    """

    addr: int
    pv: PositionVector
    updated_at: float
    expires_at: float

    def is_live(self, now: float) -> bool:
        """Whether the entry is still within its TTL."""
        return now <= self.expires_at

    @property
    def position(self) -> Position:
        """The advertised position (as beaconed — never extrapolated)."""
        return self.pv.position


class LocationTable:
    """addr -> LocTE with TTL expiry.

    Expired entries are already invisible to every liveness-aware query
    (:meth:`get`, :meth:`live_entries`), but they used to stay in the dict
    forever — on long runs a node's table grew with every vehicle that ever
    drove past it.  :meth:`update_many` therefore opportunistically purges dead
    entries once per ``purge_interval`` (default: one TTL), piggybacking on
    the beacon path so the table stays bounded by the *recent* neighbor
    population without a dedicated timer.
    """

    def __init__(self, ttl: float, *, purge_interval: Optional[float] = None):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.ttl = ttl
        #: Seconds between opportunistic purges; dead entries survive at
        #: most ``ttl + purge_interval`` after their last refresh.
        self.purge_interval = ttl if purge_interval is None else purge_interval
        self._entries: Dict[int, LocationTableEntry] = {}
        self._next_purge_at = self.purge_interval
        #: Churn counters (monotonic; never reset by :meth:`clear`).  An
        #: inter-area attacker inflates ``inserts`` — every replayed beacon
        #: teaches victims far "neighbors" they would never hear directly —
        #: so the online detection pipeline streams these as features.
        self.inserts = 0
        self.refreshes = 0
        self.purged = 0

    def __getstate__(self):
        # Column-packed: four parallel lists instead of one entry object
        # per neighbor, which made the tables most of a world checkpoint.
        # The PVs stay objects, so pickle's memo still shares one PV among
        # every table that holds it.
        state = self.__dict__.copy()
        entries = state["_entries"].values()
        state["_entries"] = (
            [e.addr for e in entries],
            [e.pv for e in entries],
            [e.updated_at for e in entries],
            [e.expires_at for e in entries],
        )
        return state

    def __setstate__(self, state):
        addrs, pvs, updated, expires = state["_entries"]
        self.__dict__.update(state)
        # Rebuilt in insertion order: GF ranks candidates in table order.
        self._entries = {
            addr: LocationTableEntry(addr, pv, updated_at, expires_at)
            for addr, pv, updated_at, expires_at in zip(addrs, pvs, updated, expires)
        }

    def update(
        self, addr: int, pv: PositionVector, now: float
    ) -> LocationTableEntry:
        """Insert or refresh the entry for ``addr`` with a new PV."""
        self.update_many(((addr, pv),), now)
        return self._entries[addr]

    def update_many(self, pairs, now: float) -> None:
        """Insert or refresh the entries of ``(addr, pv)`` pairs.

        The one insert/refresh body (:meth:`update` is its one-pair call).
        The opportunistic purge runs at most once, before the first insert,
        so a whole beacon batch pays the purge check and attribute lookups
        once instead of once per beacon.
        """
        self.maybe_purge(now)
        entries = self._entries
        ttl = self.ttl
        expires_at = now + ttl
        for addr, pv in pairs:
            entry = entries.get(addr)
            if entry is None:
                self.inserts += 1
                entries[addr] = LocationTableEntry(
                    addr=addr,
                    pv=pv,
                    updated_at=now,
                    expires_at=expires_at,
                )
            else:
                self.refreshes += 1
                entry.pv = pv
                entry.updated_at = now
                entry.expires_at = expires_at

    def get(self, addr: int, now: float) -> Optional[LocationTableEntry]:
        """The live entry for ``addr``, or None."""
        entry = self._entries.get(addr)
        if entry is None or not entry.is_live(now):
            return None
        return entry

    def remove(self, addr: int) -> None:
        """Drop the entry for ``addr`` if present."""
        self._entries.pop(addr, None)

    def clear(self, now: Optional[float] = None) -> None:
        """Wipe every entry (node reboot); resets the purge clock."""
        self._entries.clear()
        if now is not None:
            self._next_purge_at = now + self.purge_interval

    def live_entries(self, now: float) -> Iterator[LocationTableEntry]:
        """Iterate non-expired entries."""
        for entry in self._entries.values():
            if entry.is_live(now):
                yield entry

    def purge(self, now: float) -> int:
        """Physically remove expired entries; returns how many were dropped."""
        dead = [addr for addr, e in self._entries.items() if not e.is_live(now)]
        for addr in dead:
            del self._entries[addr]
        self.purged += len(dead)
        return len(dead)

    def maybe_purge(self, now: float) -> int:
        """Purge if ``purge_interval`` has elapsed since the last purge."""
        if now < self._next_purge_at:
            return 0
        self._next_purge_at = now + self.purge_interval
        return self.purge(now)

    def contains(self, addr: int, now: float) -> bool:
        """Whether a *live* entry exists for ``addr`` (liveness-aware)."""
        entry = self._entries.get(addr)
        return entry is not None and entry.is_live(now)

    def __len__(self) -> int:
        """Physical entry count, expired included (storage footprint —
        use :meth:`live_entries` to count usable neighbors)."""
        return len(self._entries)

    def __contains__(self, addr: int) -> bool:
        """Physical presence, expired included.  Time-free by necessity —
        use :meth:`contains` with ``now`` for a liveness check."""
        return addr in self._entries
