"""End-to-end checks of the World's vehicle fleet path.

Every vehicle beacons through :class:`~repro.geonet.fleet.
FleetBeaconScheduler` and receives fleet beacons in bulk, while the
attacker's mast and the static destinations receive real frames.  These
checks pin what that path must keep doing on whole runs: the interception
attack bites, the ledger accounts for every packet, the runtime invariant
checker stays quiet, the GPS-fault hook sees fleet beacons, and the urban
shadowing filter gives the same run vectorised as pair by pair.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single, summarize_world
from repro.experiments.world import World
from repro.observability.ledger import PacketLedger
from tests.experiments._golden_capture import outcome_digest


@pytest.mark.slow
def test_batched_attack_still_bites():
    """The inter-area interception must degrade the PDR: the mast sniffs
    real frames off the fleet tick."""
    config = ExperimentConfig.inter_area_default(duration=20.0, seed=7)
    attack_free = run_single(config, attacked=False)
    attacked = run_single(config, attacked=True)
    assert attacked.extras["frames_sniffed"] > 0
    assert attacked.extras["replays_sent"] > 0
    assert attacked.overall_rate < attack_free.overall_rate - 0.15


@pytest.mark.slow
def test_batched_ledger_conservation():
    """Drop-breakdown conservation: every sourced packet has exactly one
    terminal outcome in the ledger."""
    config = ExperimentConfig.inter_area_default(duration=20.0, seed=7)
    ledger = PacketLedger()
    result = run_single(config, attacked=True, ledger=ledger)
    assert result.drop_breakdown is not None
    assert sum(result.drop_breakdown.values()) == result.n_packets
    assert result.drop_breakdown.get("delivered", 0) == round(
        result.overall_rate * result.n_packets
    )


def test_tiny_batched_world_smoke():
    """Cheap non-slow sanity: a small world runs, beacons flow, positions
    stay consistent under the runtime invariant checker."""
    config = ExperimentConfig.inter_area_default(duration=6.0, seed=3).with_(
        invariant_check_interval=1.0,
    )
    config = config.with_(
        road=config.road.__class__(length=600.0, lanes_per_direction=1)
    )
    world = World(config, attacked=False)
    world.run()
    assert len(world.fleet) > 0
    assert world.fleet_scheduler.beacons_sent > 0
    totals = world.protocol_stat_totals()
    assert totals["router_beacons_accepted"] > 0
    # The checker raises InvariantViolation on any inconsistency, so
    # completed sweeps prove grid/LocT/queue consistency.
    assert world.invariant_checker is not None
    assert world.invariant_checker.checks_run > 0


@pytest.mark.slow
def test_batched_beacons_pass_through_gps_fault_hook():
    """Fleet beacons must run the fault layer's ``pv_fault`` transform
    (``GeoNode.make_beacon`` applies it to the entry and the body)."""
    from repro.faults import GpsFaultPlan
    from repro.faults.plan import FaultPlan

    config = ExperimentConfig.inter_area_default(duration=20.0, seed=7).with_(
        faults=FaultPlan(gps=GpsFaultPlan(error_stddev=50.0))
    )
    result = run_single(config, attacked=False)
    assert result.extras["fault_gps_faulted_beacons"] > 0


class _PairByPair:
    """An obstruction predicate without ``blocks_many``: forces
    :meth:`BroadcastChannel.block_mask` onto its per-pair loop."""

    def __init__(self, blocks):
        self._blocks = blocks
        self.blocked = 0

    def __call__(self, a, b):
        hit = self._blocks(a, b)
        self.blocked += hit
        return hit


@pytest.mark.slow
@pytest.mark.parametrize("attacked", [False, True])
def test_batched_path_is_outcome_equivalent_with_obstructions(attacked):
    """The urban scenario registers corner shadowing, which the fleet tick
    evaluates vectorised (``blocks_many``) over all swept pairs.  The same
    predicate evaluated pair by pair must give the bit-identical run."""
    config = ExperimentConfig.inter_area_default(duration=20.0, seed=7).urbanized(
        streets_x=3, streets_y=3, block_size=200.0, inter_vehicle_space=80.0
    )
    vectorised = run_single(config, attacked=attacked)

    world = World(config, attacked=attacked)
    pair_by_pair = _PairByPair(world.shadowing)
    world.channel._obstructions[:] = [pair_by_pair]
    world.run()
    scalar = summarize_world(world)

    assert pair_by_pair.blocked > 0
    assert vectorised.extras["stats_router_beacons_accepted"] > 0
    assert outcome_digest(scalar) == outcome_digest(vectorised)
    for key in ("frames_sent", "frames_delivered", "unicast_lost"):
        assert scalar.extras[key] == vectorised.extras[key]
