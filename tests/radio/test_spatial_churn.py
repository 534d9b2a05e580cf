"""Churn regression tests for the spatial grid and the channel's index.

Node churn exercises the one code path the original perf work never hit:
interfaces *leaving and re-entering* a channel whose grid is already
built.  These tests hammer that path — randomized insert/move/remove
interleavings against a reference dict, and register/unregister cycles on
a live channel — with :meth:`SpatialGrid.check_consistency` as the oracle.
"""

import random

import pytest

from repro.radio.spatial import SpatialGrid


def test_randomized_churn_stays_consistent_with_a_reference_dict():
    rng = random.Random(1234)
    grid = SpatialGrid(150.0)
    reference = {}
    next_id = 0
    for round_no in range(50):
        for _ in range(40):
            op = rng.random()
            if op < 0.4 or not reference:
                x, y = rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)
                grid.insert(next_id, x, y)
                reference[next_id] = (x, y)
                next_id += 1
            elif op < 0.8:
                item = rng.choice(list(reference))
                x, y = rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)
                grid.move(item, x, y)
                reference[item] = (x, y)
            else:
                item = rng.choice(list(reference))
                grid.remove(item)
                del reference[item]
        grid.check_consistency()
        assert len(grid) == len(reference)
        for item, (x, y) in reference.items():
            assert grid.position_of(item) == (x, y)
        qx, qy = rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)
        got = set(grid.items_in_disc(qx, qy, 400.0))
        want = {
            item
            for item, (x, y) in reference.items()
            if (x - qx) ** 2 + (y - qy) ** 2 <= 400.0**2
        }
        assert got == want


def test_remove_reinsert_same_item_is_clean():
    grid = SpatialGrid(100.0)
    grid.insert("a", 10.0, 10.0)
    grid.remove("a")
    grid.insert("a", 900.0, 900.0)
    grid.check_consistency()
    assert grid.position_of("a") == (900.0, 900.0)
    assert grid.items_in_disc(10.0, 10.0, 50.0) == []


def test_check_consistency_flags_stale_bucket_position():
    grid = SpatialGrid(100.0)
    grid.insert("a", 10.0, 10.0)
    cell = grid._cell_of["a"]
    grid._cells[cell]["a"] = (910.0, 10.0)  # bypasses move(): stale cell
    with pytest.raises(ValueError, match="stale cell entry"):
        grid.check_consistency()


def test_check_consistency_flags_empty_bucket():
    grid = SpatialGrid(100.0)
    grid.insert("a", 10.0, 10.0)
    grid._cells[123456] = {}
    with pytest.raises(ValueError, match="empty"):
        grid.check_consistency()


def test_check_consistency_flags_unindexed_bucket_item():
    grid = SpatialGrid(100.0)
    grid.insert("a", 10.0, 10.0)
    cell = grid._cell_of["a"]
    grid._cells[cell]["ghost"] = (10.0, 10.0)
    with pytest.raises(ValueError, match="item index"):
        grid.check_consistency()


def test_check_consistency_flags_item_missing_from_bucket():
    grid = SpatialGrid(100.0)
    grid.insert("a", 10.0, 10.0)
    cell = grid._cell_of["a"]
    del grid._cells[cell]["a"]
    grid._cells[cell]["filler"] = (10.0, 10.0)
    grid._cell_of["filler"] = cell
    with pytest.raises(ValueError, match="missing from its bucket"):
        grid.check_consistency()


# ----------------------------------------------------------------------
# churn through the live channel
# ----------------------------------------------------------------------
def test_channel_grid_survives_unregister_reregister_cycles(testbed):
    # The grid indexes non-fleet radios only: these nodes beacon by hand.
    nodes = testbed.chain(4, 150.0, beaconing=False)
    for node in nodes:
        node.send_beacon()
    testbed.warm_up(1.0)
    grid = testbed.channel._grid
    assert grid is not None
    for cycle in range(5):
        victim = nodes[cycle % len(nodes)]
        testbed.channel.unregister(victim.iface)
        grid.check_consistency()
        assert len(grid) == len(testbed.channel._interfaces) == 3
        assert victim.iface._grid_item not in grid
        testbed.channel.register(victim.iface)
        victim.send_beacon()
        testbed.warm_up(1.0)
        grid.check_consistency()
        assert len(grid) == len(testbed.channel._interfaces) == 4
        assert victim.iface._grid_item in grid


def test_fault_churn_keeps_the_channel_grid_consistent(testbed):
    """The fault injector's outage/reboot cycle must leave the grid exactly
    tracking channel membership at every instant it can be observed."""
    from repro.faults import FaultInjector, FaultPlan

    injector = FaultInjector(
        FaultPlan.churning(2.0, mean_downtime=1.0),
        sim=testbed.sim,
        streams=testbed.streams,
        channel=testbed.channel,
    )
    # The grid indexes non-fleet radios only: these nodes beacon by hand.
    nodes = testbed.chain(4, 150.0, beaconing=False)
    for node in nodes:
        injector.adopt(node)
    for _ in range(60):
        for node in nodes:
            node.send_beacon()  # a no-op while the node is down
        testbed.warm_up(0.5)
        grid = testbed.channel._grid
        if grid is None:
            continue
        grid.check_consistency()
        assert len(grid) == len(testbed.channel._interfaces)
        for node in nodes:
            assert (node.iface in testbed.channel._interfaces) == (
                not node.is_down
            )
    assert injector.stats.outages > 0
    assert injector.stats.reboots > 0
