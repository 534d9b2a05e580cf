"""Tests for switching on the §V mitigations and their end-to-end effect.

A mitigation is switched on through its :class:`GeoNetConfig` flag:
``with_mitigations`` flips the flags, :func:`dataclasses.replace` also
sets a custom threshold.
"""

from dataclasses import replace

from repro.core.mitigations import duplicate_rhl_plausible, position_plausible
from repro.geonet.config import GeoNetConfig


def test_enable_plausibility_check_defaults():
    config = GeoNetConfig().with_mitigations(plausibility_check=True)
    assert config.plausibility_check
    assert config.plausibility_threshold == 486.0


def test_enable_plausibility_check_custom_threshold():
    config = replace(
        GeoNetConfig(), plausibility_check=True, plausibility_threshold=593.0
    )
    assert config.plausibility_check
    assert config.plausibility_threshold == 593.0


def test_enable_rhl_check_defaults():
    config = GeoNetConfig().with_mitigations(rhl_check=True)
    assert config.rhl_check
    assert config.rhl_drop_threshold == 3


def test_enable_rhl_check_custom_threshold():
    config = replace(GeoNetConfig(), rhl_check=True, rhl_drop_threshold=5)
    assert config.rhl_check
    assert config.rhl_drop_threshold == 5


def test_enablers_do_not_mutate_input():
    base = GeoNetConfig()
    base.with_mitigations(plausibility_check=True, rhl_check=True)
    replace(base, plausibility_check=True, rhl_check=True)
    assert not base.plausibility_check
    assert not base.rhl_check


def test_reexported_predicates_are_the_stack_predicates():
    from repro.geonet import checks

    assert position_plausible is checks.position_plausible
    assert duplicate_rhl_plausible is checks.duplicate_rhl_plausible


def test_plausibility_check_blocks_inter_area_attack_end_to_end(make_testbed):
    """Figure 4 scenario, with the §V-A check switched on: V1 skips the
    poisoned V3 entry and the packet flows through V2."""
    from repro.core.attacks import InterAreaInterceptor
    from repro.geo.areas import CircularArea
    from repro.geo.position import Position
    from repro.radio.technology import DSRC

    config = replace(
        GeoNetConfig(dist_max=DSRC.max_range_m),
        plausibility_check=True,
        plausibility_threshold=DSRC.nlos_median_m,
    )
    testbed = make_testbed(config=config)
    v1 = testbed.add_node(0.0)
    testbed.add_node(400.0)
    v3 = testbed.add_node(880.0)
    dest = testbed.add_node(1300.0)
    got = []
    dest.router.on_deliver.append(lambda n, p: got.append(p))
    InterAreaInterceptor(
        sim=testbed.sim,
        channel=testbed.channel,
        streams=testbed.streams,
        position=Position(450.0, -10.0),
        attack_range=600.0,
    )
    testbed.warm_up()
    # The poison is present (reception-side acceptance is unchanged)...
    assert v1.router.loct.get(v3.address, testbed.sim.now) is not None
    v1.originate(CircularArea(Position(1300.0, 0.0), 30.0), "protected")
    testbed.sim.run_until(testbed.sim.now + 2.0)
    # ...but the forwarding-time check routes around it.
    assert len(got) == 1
    assert v1.router.gf.stats.plausibility_rejections >= 1
