"""Tests for the location table."""

import pickle

import pytest

from repro.geo.position import Position, PositionVector
from repro.geonet.loct import LocationTable


def pv(x, t=0.0, speed=0.0):
    return PositionVector(Position(x, 0.0), speed=speed, heading=0.0, timestamp=t)


def test_update_creates_entry():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100), now=0.0)
    entry = loct.get(1, now=0.0)
    assert entry is not None
    assert entry.position == Position(100, 0)


def test_entry_expires_after_ttl():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100), now=0.0)
    assert loct.get(1, now=20.0) is not None  # inclusive boundary
    assert loct.get(1, now=20.01) is None


def test_update_refreshes_ttl():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(1, pv(130), now=15.0)
    entry = loct.get(1, now=30.0)
    assert entry is not None
    assert entry.position.x == 130


def test_update_replaces_pv():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100, t=0.0), now=0.0)
    loct.update(1, pv(200, t=3.0), now=3.0)
    assert loct.get(1, now=3.0).pv.timestamp == 3.0


def test_live_entries_skips_expired():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=5.0)
    live = {e.addr for e in loct.live_entries(now=12.0)}
    assert live == {2}


def test_purge_removes_expired_physically():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=5.0)
    assert loct.purge(now=12.0) == 1
    assert len(loct) == 1
    assert 1 not in loct
    assert 2 in loct


def test_remove():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    loct.remove(1)
    assert loct.get(1, now=0.0) is None
    loct.remove(1)  # idempotent


def test_stored_pv_is_never_extrapolated():
    """The table returns the advertised PV as-is — GF acting on stale
    positions is the behaviour the paper's attacks and baselines rely on."""
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100, t=0.0, speed=30.0), now=0.0)
    entry = loct.get(1, now=10.0)
    assert entry.position.x == 100  # not 400


def test_invalid_ttl_rejected():
    with pytest.raises(ValueError):
        LocationTable(ttl=0.0)


def test_len_counts_all_entries_even_expired():
    loct = LocationTable(ttl=1.0)
    loct.update(1, pv(1), now=0.0)
    loct.update(2, pv(2), now=0.0)
    assert len(loct) == 2


def test_contains_is_liveness_aware():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    assert loct.contains(1, now=5.0)
    assert not loct.contains(1, now=10.01)  # expired
    assert not loct.contains(2, now=5.0)  # never seen
    # __contains__ stays physical (storage membership, time-free).
    assert 1 in loct


def test_update_opportunistically_purges_expired_entries():
    loct = LocationTable(ttl=10.0)  # purge interval defaults to ttl
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=25.0)  # past the purge point: 1 is dropped
    assert 1 not in loct
    assert 2 in loct


def test_purge_is_rate_limited_between_intervals():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=12.0)  # purge fires (1 still live till 10... dead)
    loct.update(3, pv(300), now=13.0)  # within the interval: no purge yet
    # Entry 2 expires at 22; a dead entry added right before the next purge
    # point survives only until that purge.
    loct.update(4, pv(400), now=23.0)
    assert 2 not in loct
    assert {3, 4} <= set(loct._entries)


def test_table_stays_bounded_under_churn():
    """A long-lived node that hears a stream of one-off neighbors must not
    accumulate one entry per address forever."""
    loct = LocationTable(ttl=10.0)
    for addr in range(1000):
        loct.update(addr, pv(addr), now=float(addr))
    # Physical size is bounded by the addresses heard within one
    # ttl + purge_interval window, not by the 1000 ever heard.
    assert len(loct) <= 21


def test_custom_purge_interval():
    loct = LocationTable(ttl=10.0, purge_interval=2.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=12.5)
    assert 1 not in loct


# ----------------------------------------------------------------------
# update_many (bulk refresh)
# ----------------------------------------------------------------------
def test_update_many_matches_repeated_update():
    bulk = LocationTable(ttl=20.0)
    single = LocationTable(ttl=20.0)
    pairs = [(a, pv(100 + a, t=5.0)) for a in range(1, 30)]
    bulk.update_many(pairs, now=5.0)
    for addr, p in pairs:
        single.update(addr, p, now=5.0)
    assert len(bulk) == len(single)
    for addr, _p in pairs:
        be, se = bulk.get(addr, now=5.0), single.get(addr, now=5.0)
        assert (be.pv, be.updated_at, be.expires_at) == (
            se.pv,
            se.updated_at,
            se.expires_at,
        )


def test_update_many_refreshes_existing_entries():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100, t=0.0), now=0.0)
    loct.update_many([(1, pv(150, t=10.0)), (2, pv(200, t=10.0))], now=10.0)
    entry = loct.get(1, now=10.0)
    assert entry.position == Position(150, 0)
    assert entry.expires_at == 30.0
    assert loct.get(2, now=10.0) is not None


def test_update_many_runs_opportunistic_purge():
    """The bulk path keeps the PR 2 purge piggyback: one purge per batch."""
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100, t=0.0), now=0.0)  # expires at 20
    # At t=50 the purge interval (one TTL) has long elapsed; the bulk
    # update must physically drop the dead entry before inserting.
    loct.update_many([(2, pv(200, t=50.0))], now=50.0)
    assert 1 not in loct
    assert 2 in loct



def test_pickle_round_trip_keeps_entries_order_and_shared_pvs():
    """A checkpoint pickles a table's ``addr -> (pv, updated_at)`` dict; the
    restored table has the same entries in the same order, the same
    counters and purge clock, and one PV object still shared by every table
    that held it."""
    shared = pv(500, t=4.0)
    a = LocationTable(ttl=20.0)
    b = LocationTable(ttl=20.0, purge_interval=5.0)
    a.update_many([(3, pv(30)), (1, shared), (2, pv(20))], now=1.0)
    a.update(3, pv(31, t=2.0), now=2.0)
    b.update(9, pv(90), now=4.0)
    b.maybe_purge(30.0)
    b.update_many([(7, pv(70, t=30.0)), (1, shared)], now=30.0)

    a2, b2 = pickle.loads(pickle.dumps((a, b)))

    for before, after in ((a, a2), (b, b2)):
        assert list(after._entries) == list(before._entries)
        assert list(after._entries.values()) == list(before._entries.values())
        for key in ("ttl", "purge_interval", "_next_purge_at", "inserts",
                    "refreshes", "purged"):
            assert getattr(after, key) == getattr(before, key)
    assert a2._entries[1][0] is b2._entries[1][0]
    # The restored table keeps working: a refresh, then an insert.
    a2.update(2, pv(25, t=5.0), now=5.0)
    a2.update(4, pv(40, t=5.0), now=5.0)
    assert list(a2._entries) == [3, 1, 2, 4]
    assert a2.get(2, now=5.0).position.x == 25
    assert (a2.inserts, a2.refreshes) == (a.inserts + 1, a.refreshes + 1)
