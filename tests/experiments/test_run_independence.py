"""A run's record depends on its config, seed and attack flag alone.

Every id a run allocates — link-layer addresses, vehicle ids, keypairs —
belongs to an object of its own world, so runs executed back to back in
one process, with nothing reset between them, produce identical records
(packet ids included, which embed the source's address).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from tests.experiments.test_checkpoint_determinism import masked


def test_back_to_back_runs_are_identical_without_reset():
    config = ExperimentConfig.inter_area_default(duration=6.0)
    first = run_single(config, attacked=True, seed=3)
    second = run_single(config, attacked=True, seed=3)
    first_ids = [o.packet_id for o in first.outcomes]
    assert first_ids
    assert [o.packet_id for o in second.outcomes] == first_ids
    assert masked(second) == masked(first)


def test_two_testbeds_allocate_the_same_addresses(make_testbed):
    first, second = make_testbed(), make_testbed()
    a = [first.add_node(100.0 * k).address for k in range(3)]
    b = [second.add_node(100.0 * k).address for k in range(3)]
    assert a == b == [1, 2, 3]
