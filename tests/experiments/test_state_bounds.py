"""State-growth fixes must not change packet outcomes.

LocT purging and CBF done-set expiry are pure memory reclamation: expired
LocT entries were already invisible to routing, and a CBF duplicate entry
is only dropped once its packet cannot legally recur (lifetime + grace).
The golden test runs the same seeded world with the reclamation enabled
and disabled and requires bit-identical metrics; the bounds test asserts
the retained state actually stays within its documented windows.
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.experiments.world import World
from repro.geonet.cbf import CbfForwarder
from repro.geonet.loct import LocationTable
from tests.experiments._golden_capture import outcome_digest


def short_lifetime_config(kind, *, duration):
    """A config whose LocT TTL and packet lifetime are far below the run
    duration, so purges and sweeps actually fire during the run."""
    factory = (
        ExperimentConfig.intra_area_default
        if kind == "intra"
        else ExperimentConfig.inter_area_default
    )
    config = factory(duration=duration, seed=5)
    return config.with_(
        road=dataclasses.replace(config.road, length=1500.0),
        geonet=dataclasses.replace(
            config.geonet, loct_ttl=6.0, default_lifetime=5.0
        ),
    )


def comparable(result):
    """Everything deterministic about a run.

    ``outcome_digest`` hashes every behavioural outcome field at full
    precision but excludes ``packet_id`` (see its comment); the wall-clock
    extras are excluded because they measure the host, not the run.
    """
    extras = {
        k: v
        for k, v in result.extras.items()
        if k not in ("wall_time_s", "events_per_wall_sec")
    }
    return (
        result.seed,
        result.attacked,
        result.binned,
        result.overall_rate,
        result.n_packets,
        outcome_digest(result),
        extras,
    )


@pytest.mark.parametrize("kind", ["intra", "inter"])
@pytest.mark.parametrize("attacked", [False, True])
def test_reclamation_is_outcome_invariant(kind, attacked, monkeypatch):
    config = short_lifetime_config(kind, duration=30.0)
    with_fix = run_single(config, attacked=attacked)

    monkeypatch.setattr(LocationTable, "maybe_purge", lambda self, now: 0)
    monkeypatch.setattr(CbfForwarder, "_sweep_done", lambda self, now: None)
    without_fix = run_single(config, attacked=attacked)

    assert comparable(with_fix) == comparable(without_fix)


def _all_nodes(world):
    return list(world.nodes.values()) + list(world.dest_nodes)


def _state_totals(world):
    return (
        sum(len(n.router.loct) for n in _all_nodes(world)),
        sum(len(n.router.cbf._done) for n in _all_nodes(world)),
    )


def test_loct_and_done_set_stay_bounded(monkeypatch):
    """Long-run state obeys the reclamation invariants and is strictly
    smaller than the pre-fix unbounded behaviour on the same run.

    The reclamation is opportunistic (LocT purges on beacon updates, CBF
    sweeps on broadcast receptions), so the invariant is relative to each
    structure's own last reclamation point, not wall clock: nothing that
    was already dead at the last purge/sweep may still be retained.
    """
    config = short_lifetime_config("intra", duration=60.0)
    world = World(config, attacked=False, seed=5)
    world.run()
    assert world.nodes, "expected live vehicles at the end of the run"
    for node in _all_nodes(world):
        loct = node.router.loct
        last_purge = loct._next_purge_at - loct.purge_interval
        for _pv, updated_at in loct._entries.values():
            assert updated_at + loct.ttl >= last_purge
        cbf = node.router.cbf
        last_sweep = cbf._next_done_sweep - 5.0  # _DONE_SWEEP_INTERVAL
        for drop_after in cbf._done.values():
            assert drop_after >= last_sweep
    fixed_loct, fixed_done = _state_totals(world)

    # The identical seeded run with reclamation disabled: every vehicle
    # that ever beaconed and every packet ever flooded stays resident.
    monkeypatch.setattr(LocationTable, "maybe_purge", lambda self, now: 0)
    monkeypatch.setattr(CbfForwarder, "_sweep_done", lambda self, now: None)
    unbounded = World(config, attacked=False, seed=5)
    unbounded.run()
    grown_loct, grown_done = _state_totals(unbounded)
    assert fixed_loct < grown_loct
    assert fixed_done < grown_done
