"""The GeoNetworking location table (LocT).

Every node stores the position vectors of the neighbors it has heard
beacons from, as ``LocTE (addr, PV, TTL)`` per the paper.  A LocTE is
stored as ``addr -> (pv, updated_at)``; the TTL (default 20 s) belongs to
the table, so an entry's expiry ``updated_at + ttl`` is derived on read.

The table trusts whatever authenticated beacon it is given: EN 302 636-4-1
performs no distance-plausibility check on reception, which is the second
GF vulnerability the paper identifies.
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from repro.geo.position import Position, PositionVector


class LocationTableEntry(NamedTuple):
    """A read-only view of one LocTE: address, PV and expiry bookkeeping.

    Every entry comes from a beacon, so every entry is a one-hop neighbor
    GF may pick as a next hop.  The inter-area attack works precisely
    because a *replayed* beacon is still a beacon — the victim "labels V3
    as a neighbor".
    """

    addr: int
    pv: PositionVector
    updated_at: float
    expires_at: float

    @property
    def position(self) -> Position:
        """The advertised position (as beaconed — never extrapolated)."""
        return self.pv.position


class LocationTable:
    """addr -> ``(pv, updated_at)`` with TTL expiry.

    An entry is live iff ``now <= updated_at + ttl``.  Entry views are
    built only when a query returns one.

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
        #: addr -> (pv, updated_at), in first-insertion order: a refresh
        #: reassigns an existing key, which keeps its place, and GF ranks
        #: candidates in table order.
        self._entries: Dict[int, Tuple[PositionVector, float]] = {}
        self._next_purge_at = self.purge_interval
        #: Churn counters (monotonic; never reset by :meth:`clear`).  An
        #: inter-area attacker inflates ``inserts`` — every replayed beacon
        #: teaches victims far "neighbors" they would never hear directly —
        #: so the online detection pipeline streams these as features.
        self.inserts = 0
        self.refreshes = 0
        self.purged = 0

    def update(self, addr: int, pv: PositionVector, now: float) -> None:
        """Insert or refresh the entry for ``addr`` with a new PV."""
        self.update_many(((addr, pv),), now)

    def update_many(self, pairs, now: float) -> None:
        """Insert or refresh the entries of a sequence of ``(addr, pv)`` pairs.

        The one insert/refresh body (:meth:`update` is its one-pair call).
        The opportunistic purge runs at most once, before the first insert,
        so a whole beacon batch pays the purge check once.  Inserts are the
        growth of the table; every other pair of the batch is a refresh.
        """
        self.maybe_purge(now)
        entries = self._entries
        before = len(entries)
        for addr, pv in pairs:
            entries[addr] = (pv, now)
        inserted = len(entries) - before
        self.inserts += inserted
        self.refreshes += len(pairs) - inserted

    def get(self, addr: int, now: float) -> Optional[LocationTableEntry]:
        """The live entry for ``addr``, or None."""
        row = self._entries.get(addr)
        if row is None or now > row[1] + self.ttl:
            return None
        pv, updated_at = row
        return LocationTableEntry(addr, pv, updated_at, updated_at + self.ttl)

    def remove(self, addr: int) -> None:
        """Drop the entry for ``addr`` if present."""
        self._entries.pop(addr, None)

    def clear(self, now: Optional[float] = None) -> None:
        """Wipe every entry (node reboot); resets the purge clock."""
        self._entries.clear()
        if now is not None:
            self._next_purge_at = now + self.purge_interval

    def live_entries(self, now: float) -> Iterator[LocationTableEntry]:
        """Iterate non-expired entries, in table order."""
        ttl = self.ttl
        for addr, (pv, updated_at) in self._entries.items():
            if now <= updated_at + ttl:
                yield LocationTableEntry(addr, pv, updated_at, updated_at + ttl)

    def purge(self, now: float) -> int:
        """Physically remove expired entries; returns how many were dropped."""
        ttl = self.ttl
        entries = self._entries
        dead = [addr for addr, (_pv, t) in entries.items() if now > t + ttl]
        for addr in dead:
            del entries[addr]
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
        row = self._entries.get(addr)
        return row is not None and now <= row[1] + self.ttl

    def __len__(self) -> int:
        """Physical entry count, expired included (storage footprint —
        use :meth:`live_entries` to count usable neighbors)."""
        return len(self._entries)

    def __contains__(self, addr: int) -> bool:
        """Physical presence, expired included.  Time-free by necessity —
        use :meth:`contains` with ``now`` for a liveness check."""
        return addr in self._entries
