"""Tests for access-layer frames."""

import pytest

from repro.geo.position import Position
from repro.radio.frames import Frame, FrameKind


def make_frame(**kwargs):
    defaults = dict(
        kind=FrameKind.BEACON,
        sender_addr=1,
        payload="p",
        tx_position=Position(0, 0),
        tx_range=100.0,
        tx_time=0.0,
    )
    defaults.update(kwargs)
    return Frame(**defaults)


def test_broadcast_flag():
    assert make_frame().is_broadcast
    assert not make_frame(dest_addr=7).is_broadcast


def test_frames_compare_by_identity():
    a, b = make_frame(), make_frame()
    assert a == a
    assert a != b
    assert len({a, b}) == 2


def test_frame_is_immutable():
    frame = make_frame()
    with pytest.raises(AttributeError):
        frame.tx_range = 5.0


def test_frame_kinds_distinct():
    assert len({k.value for k in FrameKind}) == 3
