"""The beacon tick's real frames follow the one receiver rule.

A beacon tick hands beacon batches to beaconing fleet members and real
frames to every other registered radio: a mast, a node that does not
beacon, a test radio.  Such a radio hears a due sender iff it lies within
the sender's TX range, or within its own ``link_range`` when it has one
(a *long-eared* radio), and the link is neither blocked nor dropped by the
fault hook.  Deliveries go out sender-major (due senders in slot order),
in registration order within a sender.

A hypothesis layout of members and radios is run tick by tick against a
pairwise reference over due senders x registered radios: the set *and*
the order of real-frame deliveries must match, and so must the fault
hook's calls on real-frame links.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.position import Position
from repro.radio.channel import BroadcastChannel, RadioInterface
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.geonet.test_fleet import Member, make_scheduler

_coord = st.floats(0.0, 1200.0, allow_nan=False)

#: A beaconing member: position and TX range (the cell size is the
#: largest member TX range, so at most 400 m).
_member = st.tuples(st.just("member"), _coord, _coord, st.floats(50.0, 400.0))

#: A real-frame radio: position, ``link_range`` (None: not long-eared;
#: otherwise below every sender's range, within the senders' ranges, or
#: past the cell size), whether it sits on a slot of its own (a node that
#: does not beacon) or on a static slot the channel claims, and whether it
#: is powered off.
_radio = st.tuples(
    st.just("radio"),
    _coord,
    _coord,
    st.one_of(
        st.none(),
        st.floats(1.0, 50.0),
        st.floats(50.0, 400.0),
        st.floats(400.0, 1700.0),
    ),
    st.booleans(),
    st.booleans(),
)


class _Sender(Member):
    """A member that logs each beacon it sends, in the tick's order."""

    def __init__(self, iface, sent):
        super().__init__(iface)
        self._sent = sent

    def make_beacon(self, pv, now):
        self._sent.append((now, self.iface))
        return super().make_beacon(pv, now)


def _slot_position(fleet, slot):
    return lambda: Position(fleet.x.item(slot), fleet.y.item(slot))


def _add_sender(channel, x, y, tx_range, sent):
    fleet = channel.fleet
    slot = fleet.add(x=x, y=y)
    iface = RadioInterface(_slot_position(fleet, slot), tx_range, slot=slot)
    channel.register(iface)
    fleet.attach(slot, _Sender(iface, sent), tx_range)


def _build(specs, walls, faulty):
    sim = Simulator()
    channel = BroadcastChannel(sim, RandomStreams(1), latency_jitter=0.0)
    fleet = channel.fleet
    for x0 in walls:
        channel.add_obstruction(lambda a, b, x0=x0: (a.x - x0) * (b.x - x0) < 0)
    sent = []  # (tick time, sender iface), in the tick's order
    heard = []  # (tx_time, sender_addr, receiver iface), in delivery order
    faults = []  # (sender_addr, receiver_addr) of every hook call
    for spec in specs:
        if spec[0] == "member":
            _add_sender(channel, *spec[1:], sent)
            continue
        _kind, x, y, link_range, own_slot, powered_off = spec
        slot = fleet.add(x=x, y=y) if own_slot else None
        iface = RadioInterface(
            _slot_position(fleet, slot) if own_slot else (lambda p=Position(x, y): p),
            100.0,
            link_range=link_range,
            promiscuous=True,
            slot=slot,
        )
        iface.attach(
            lambda frame, iface=iface: heard.append(
                (frame.tx_time, frame.sender_addr, iface)
            )
        )
        channel.register(iface)
        if powered_off:
            channel.unregister(iface)
    if faulty:

        def link_fault(sender_addr, receiver_addr):
            faults.append((sender_addr, receiver_addr))
            return (3 * sender_addr + receiver_addr) % 4 == 0

        channel.link_fault = link_fault
    return sim, channel, sent, heard, faults


def _reference_links(channel, senders):
    """Real-frame links of one tick, by checking every pair in turn:
    senders in the tick's order, radios in registration order."""
    fleet = channel.fleet
    links = []
    for sender in senders:
        tx = sender.get_position()
        for iface in channel.interfaces:
            if fleet.batch[iface.slot]:
                continue  # a beaconing member hears beacon batches
            rx = iface.get_position()
            reach = sender.tx_range if iface.link_range is None else iface.link_range
            dx = rx.x - tx.x
            dy = rx.y - tx.y
            if dx * dx + dy * dy > reach * reach:
                continue
            if channel.is_link_blocked(tx, iface):
                continue
            links.append((sender, iface))
    return links


@settings(max_examples=80, deadline=None)
@given(
    specs=st.lists(st.one_of(_member, _radio), min_size=2, max_size=14),
    walls=st.lists(_coord, max_size=1),
    faulty=st.booleans(),
)
def test_tick_real_frames_match_pairwise_reference(specs, walls, faulty):
    sim, channel, sent, heard, faults = _build(specs, walls, faulty)
    # A coarse tick puts several due senders in most ticks.
    make_scheduler(sim, channel.fleet, channel, tick=0.5)
    fleet = channel.fleet
    by_addr = {iface.address: iface for iface in channel.interfaces}
    end = 0.0
    for _ in range(16):
        end += 0.5
        sim.run_until(end)
        ticks = sorted({now for now, _iface in sent})
        want_heard = []
        want_faults = []
        for now in ticks:
            senders = [iface for t, iface in sent if t == now]
            for sender, iface in _reference_links(channel, senders):
                link = (sender.address, iface.address)
                want_faults.append(link)
                if faulty and (3 * link[0] + link[1]) % 4 == 0:
                    continue
                want_heard.append((now, sender.address, iface))
        # Deliveries still in flight at ``end`` are checked next round.
        in_flight = [w for w in want_heard if w[0] + channel.base_latency > end]
        assert heard + in_flight == want_heard
        got_faults = [
            link
            for link in faults
            if not fleet.batch[by_addr[link[1]].slot]
        ]
        assert got_faults == (want_faults if faulty else [])
