"""Slot churn: every receiver lookup stays exact while radios come and go.

Every registered radio sits in a slot of the channel's fleet, and one cell
index over the slot columns answers every receiver lookup.  Churn is what
can leave that index behind the radios: a static slot claimed and freed by
register/unregister, a node's own slot keeping a powered-off radio, a
mobile mast moving its slot, an attacker leaving the channel for good.  A
hypothesis sequence of those steps is checked after every step against
the brute-force reference of ``test_channel_semantics`` and the invariant
checker's slot check.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attacks.inter_area import InterAreaInterceptor
from repro.core.attacks.mobile import MobileInterceptor
from repro.geo.position import Position
from repro.observability.invariants import InvariantChecker
from repro.radio.channel import RadioInterface
from repro.radio.frames import Frame, FrameKind
from tests import conftest
from tests.radio.test_channel_semantics import (
    reference_neighbors,
    reference_receivers,
)

_coord = st.floats(0.0, 1500.0, allow_nan=False)

_step = st.one_of(
    st.tuples(
        st.just("register"),
        _coord,
        _coord,
        st.floats(10.0, 600.0),  # tx_range
        st.one_of(st.none(), st.floats(1.0, 1300.0)),  # link_range override
        st.booleans(),  # promiscuous
    ),
    st.tuples(st.just("unregister"), st.integers(0, 15)),
    st.tuples(st.just("reregister"), st.integers(0, 15)),
    st.tuples(st.just("mast_move"), st.integers(1, 8)),
    st.tuples(st.just("power_cycle"), st.integers(0, 5)),
    st.tuples(st.just("stop"), st.integers(0, 1)),
)


class _Radio:
    """A hand-built radio whose position the test sets."""

    def __init__(self, channel, x, y, tx_range, link_range, promiscuous):
        self.position = Position(x, y)
        self.iface = RadioInterface(
            self.get_position,
            tx_range,
            link_range=link_range,
            promiscuous=promiscuous,
        )
        channel.register(self.iface)

    def get_position(self):
        return self.position


def _build():
    tb = conftest.Testbed(seed=3)
    # Beaconing nodes keep their own slots; the others get static slots.
    nodes = [
        tb.add_node(
            300.0 * i,
            40.0 * (i % 2),
            beaconing=i % 2 == 0,
            name=f"n{i}",
        )
        for i in range(6)
    ]
    common = dict(sim=tb.sim, channel=tb.channel, streams=tb.streams)
    attackers = [
        InterAreaInterceptor(
            position=Position(700.0, -20.0), attack_range=900.0, name="mast",
            **common,
        ),
        MobileInterceptor(
            path=[Position(0.0, 10.0), Position(1500.0, 10.0)],
            speed=150.0,
            attack_range=1283.0,
            name="mobile",
            **common,
        ),
    ]
    return tb, nodes, attackers


def _apply(step, tb, nodes, attackers, radios):
    kind = step[0]
    channel = tb.channel
    if kind == "register":
        radios.append(_Radio(channel, *step[1:]))
    elif kind in ("unregister", "reregister") and radios:
        iface = radios[step[1] % len(radios)].iface
        if kind == "unregister":
            channel.unregister(iface)
        elif iface.channel is None:
            channel.register(iface)
    elif kind == "mast_move":
        mobile = attackers[1]
        if mobile.iface.channel is channel:
            for _ in range(step[1]):
                mobile._advance()
    elif kind == "power_cycle":
        node = nodes[step[1]]
        if node.is_down:
            node.come_up()
        else:
            node.go_down()
    elif kind == "stop":
        attackers[step[1]].stop()


def _check(tb):
    channel = tb.channel
    live = list(channel.interfaces)
    for sender in live:
        for dest in (None, live[0].address):
            frame = Frame(
                kind=FrameKind.BEACON,
                sender_addr=sender.address,
                payload=None,
                tx_position=sender.get_position(),
                tx_range=sender.tx_range,
                tx_time=tb.sim.now,
                dest_addr=dest,
            )
            want = reference_receivers(
                live, frame, sender, channel.is_link_blocked
            )
            assert channel._receivers_for(frame, sender) == want
        position = sender.get_position()
        for radius in (150.0, 700.0):
            assert channel.neighbors_within(
                position, radius
            ) == reference_neighbors(live, position, radius)
    InvariantChecker(tb.sim, channel=channel).run()


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=25))
def test_receivers_stay_exact_under_slot_churn(steps):
    tb, nodes, attackers = _build()
    radios = []
    _check(tb)
    for step in steps:
        _apply(step, tb, nodes, attackers, radios)
        _check(tb)
    # Every slot is held by a radio or a node; none is leaked.
    fleet = tb.channel.fleet
    holders = {iface.slot for iface in tb.channel.interfaces}
    holders |= {node.slot for node in nodes if node.slot is not None}
    assert set(fleet.live_slots().tolist()) == holders


def test_stopped_attacker_frees_its_static_slot():
    tb, _nodes, attackers = _build()
    mast = attackers[0]
    slot = mast.iface.slot
    assert tb.channel.fleet.ifaces[slot] is mast.iface
    assert slot in tb.channel.fleet.frame_slots()
    mast.stop()
    assert mast.iface.slot is None
    assert not tb.channel.fleet.alive[slot]
    _check(tb)


def test_powered_off_node_keeps_its_slot_and_hears_nothing():
    tb, nodes, _attackers = _build()
    node = nodes[0]  # beaconing: it owns its slot
    slot = node.slot
    node.go_down()
    assert tb.channel.fleet.alive[slot]
    assert node.iface not in tb.channel.neighbors_within(node.position(), 50.0)
    _check(tb)
    node.come_up()
    assert node.iface.slot == slot
    assert node.iface in tb.channel.neighbors_within(node.position(), 50.0)
    _check(tb)


def test_mobile_mast_is_found_where_it_moved():
    tb, _nodes, attackers = _build()
    mobile = attackers[1]
    for _ in range(10):
        mobile._advance()
    where = mobile.iface.get_position()
    fleet = tb.channel.fleet
    assert (fleet.x[mobile.iface.slot], fleet.y[mobile.iface.slot]) == (
        where.x,
        where.y,
    )
    assert mobile.iface in tb.channel.neighbors_within(where, 1.0)
    _check(tb)
