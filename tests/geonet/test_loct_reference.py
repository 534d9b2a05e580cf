"""Differential test: ``LocationTable`` against a reference location table.

The reference below is written from the location-table rules of
EN 302 636-4-1 (as Amador et al., arXiv:2403.16237, restate them), not
from ``loct.py``:

* an insert or a refresh stores the new PV and restarts the entry's TTL;
* an entry is live iff ``now <= last refresh + ttl``;
* dead entries are removed by a purge that runs at most once per
  ``purge_interval``, piggybacked on an update, and removes exactly the
  entries dead at that moment;
* a ``clear`` (node reboot) empties the table and restarts the purge clock;
* inserts, refreshes and purged entries are counted;
* the table keeps first-insertion order (GF ranks candidates in it): a
  refresh does not move an entry, a removed and re-heard address goes last.

A hypothesis sequence of ``update_many``/``get``/``live_entries``/``purge``/
``clear``/``remove`` steps drives both tables, and every query answer is
compared.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.position import Position, PositionVector
from repro.geonet.loct import LocationTable


class ReferenceLocT:
    def __init__(self, ttl, purge_interval):
        self.ttl, self.purge_interval = ttl, purge_interval
        self.order = []  # addresses in first-insertion order
        self.rows = {}  # addr -> (pv, last refresh)
        self.next_purge = purge_interval
        self.inserts = self.refreshes = self.purged = 0

    def live(self, addr, now):
        return addr in self.rows and now <= self.rows[addr][1] + self.ttl

    def update_many(self, pairs, now):
        if now >= self.next_purge:
            self.next_purge = now + self.purge_interval
            self.purge(now)
        for addr, pv in pairs:
            if addr in self.rows:
                self.refreshes += 1
            else:
                self.inserts += 1
                self.order.append(addr)
            self.rows[addr] = (pv, now)

    def purge(self, now):
        dead = [a for a in self.order if not self.live(a, now)]
        for addr in dead:
            self.remove(addr)
        self.purged += len(dead)
        return len(dead)

    def remove(self, addr):
        if addr in self.rows:
            del self.rows[addr]
            self.order.remove(addr)

    def clear(self, now):
        self.order, self.rows = [], {}
        if now is not None:
            self.next_purge = now + self.purge_interval

    def live_rows(self, now):
        return [(a, *self.rows[a]) for a in self.order if self.live(a, now)]


_ADDRS = st.integers(1, 5)
_PV = st.builds(
    lambda x: PositionVector(Position(x, 0.0), speed=0.0, heading=0.0, timestamp=0.0),
    st.floats(0.0, 3000.0, allow_nan=False),
)
# Time steps in units of the TTL: the sampled ones land on TTL and purge
# boundaries, the drawn ones exercise the float arithmetic of
# ``last refresh + ttl``.
_DT = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]), st.floats(0.0, 3.0))

# Every step draws all the arguments any operation takes; updates are
# drawn three times as often as each other operation.  ``_assert_same``
# reads ``live_entries`` after every step, so that step only moves time.
_OPS = ["update_many"] * 3 + ["get", "live_entries", "purge", "clear", "remove"]
_step = st.tuples(
    st.sampled_from(_OPS),
    _DT,
    _ADDRS,
    st.lists(st.tuples(_ADDRS, _PV), min_size=1, max_size=6),
    st.booleans(),  # whether ``clear`` is given the time
)


def _assert_same(table, ref, now):
    assert len(table) == len(ref.rows)
    assert [(e.addr, e.pv, e.updated_at) for e in table.live_entries(now)] == (
        ref.live_rows(now)
    )
    for addr in range(1, 6):
        assert (addr in table) == (addr in ref.rows)
        assert table.contains(addr, now) == ref.live(addr, now)
    assert (table.inserts, table.refreshes, table.purged) == (
        ref.inserts,
        ref.refreshes,
        ref.purged,
    )


# 300 examples also catch a ``clear`` that keeps the purge clock and a
# liveness test that drops the TTL boundary on most seeds.
@settings(max_examples=300)
@given(
    ttl=st.sampled_from([0.3, 10.0, 20.0]),
    # The purge interval in TTLs; None is the table's default of one TTL.
    purge_ttls=st.one_of(st.none(), st.sampled_from([0.25, 0.5, 2.0, 4.0])),
    steps=st.lists(_step, min_size=1, max_size=50),
)
def test_location_table_matches_the_reference(ttl, purge_ttls, steps):
    if purge_ttls is None:
        table = LocationTable(ttl)
        ref = ReferenceLocT(ttl, ttl)
    else:
        table = LocationTable(ttl, purge_interval=purge_ttls * ttl)
        ref = ReferenceLocT(ttl, purge_ttls * ttl)
    now = 0.0
    for op, dt, addr, pairs, clear_at_now in steps:
        now += dt * ttl
        if op == "update_many":
            table.update_many(pairs, now)
            ref.update_many(pairs, now)
        elif op == "get":
            entry = table.get(addr, now)
            if ref.live(addr, now):
                pv, refreshed = ref.rows[addr]
                assert (entry.addr, entry.pv, entry.updated_at) == (addr, pv, refreshed)
                assert entry.position == pv.position
            else:
                assert entry is None
        elif op == "purge":
            assert table.purge(now) == ref.purge(now)
        elif op == "clear":
            table.clear(now if clear_at_now else None)
            ref.clear(now if clear_at_now else None)
        elif op == "remove":
            table.remove(addr)
            ref.remove(addr)
        _assert_same(table, ref, now)
