"""Tests for the Manhattan corner-shadowing model.

:func:`reference_blocks` is the pairwise corridor/corner rule written out
link by link, street by street: the reference the endpoint-labelled
``blocks_many`` is checked against.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geo.position import Position
from repro.radio.shadowing import ManhattanShadowing

# A 3x3-street grid with 200 m blocks: streets at 0, 200, 400 on both
# axes, 6 m LoS corridors, 20 m corner clearance.
MODEL = ManhattanShadowing.for_grid(
    3, 3, 200.0, half_width=6.0, corner_clearance=20.0
)


def reference_blocks(model, tx_x, tx_y, rx_x, rx_y):
    """Blocked-mask over parallel link-endpoint arrays, by the pairwise
    rule: clear when both ends lie in one street's corridor or both lie
    within ``corner_clearance`` of one intersection."""
    tx_x = np.asarray(tx_x, dtype=float)
    tx_y = np.asarray(tx_y, dtype=float)
    rx_x = np.asarray(rx_x, dtype=float)
    rx_y = np.asarray(rx_y, dtype=float)
    hw = model.half_width
    los = np.zeros(tx_x.shape, dtype=bool)
    for sy in model.street_ys:
        los |= (np.abs(tx_y - sy) <= hw) & (np.abs(rx_y - sy) <= hw)
    for sx in model.street_xs:
        los |= (np.abs(tx_x - sx) <= hw) & (np.abs(rx_x - sx) <= hw)
    clearance = model.corner_clearance
    if clearance > 0.0:
        c_sq = clearance * clearance
        for sx in model.street_xs:
            adx = tx_x - sx
            bdx = rx_x - sx
            for sy in model.street_ys:
                ady = tx_y - sy
                bdy = rx_y - sy
                near_a = adx * adx + ady * ady <= c_sq
                near_b = bdx * bdx + bdy * bdy <= c_sq
                los |= near_a & near_b
    return ~los


class TestLineOfSight:
    def test_same_horizontal_street_is_clear(self):
        # Both on the y=200 street (within the corridor half-width).
        assert not MODEL(Position(10.0, 198.0), Position(390.0, 202.0))

    def test_same_vertical_street_is_clear(self):
        assert not MODEL(Position(201.0, 10.0), Position(199.0, 390.0))

    def test_cross_street_is_blocked(self):
        # One on y=0, one on y=200, both mid-block: buildings in between.
        assert MODEL(Position(100.0, 0.0), Position(100.0, 200.0))

    def test_mid_block_positions_are_blocked_from_everywhere(self):
        # Inside a building block (on no street corridor at all).
        inside = Position(100.0, 100.0)
        assert MODEL(inside, Position(100.0, 0.0))
        assert MODEL(Position(100.0, 0.0), inside)

    def test_parallel_streets_are_blocked(self):
        assert MODEL(Position(50.0, 0.0), Position(50.0, 400.0))


class TestCornerClearance:
    def test_both_near_common_intersection_is_clear(self):
        # 15 m down each arm of the (200, 200) intersection: diffraction
        # carries the signal around the corner.
        a = Position(185.0, 200.0)  # on the horizontal street
        b = Position(200.0, 215.0)  # on the vertical street
        assert not MODEL(a, b)

    def test_one_endpoint_too_far_from_corner_is_blocked(self):
        a = Position(185.0, 200.0)  # 15 m from the corner
        b = Position(200.0, 260.0)  # 60 m from it, around the corner
        assert MODEL(a, b)

    def test_different_intersections_do_not_help(self):
        # Each endpoint near *a* corner, but not the same one.
        a = Position(15.0, 0.0)  # near (0, 0)
        b = Position(400.0, 15.0)  # near (400, 0)
        assert MODEL(a, b)

    def test_zero_clearance_disables_corner_diffraction(self):
        model = ManhattanShadowing.for_grid(
            3, 3, 200.0, half_width=6.0, corner_clearance=0.0
        )
        # 10 m down each arm of the (200, 200) corner: on different streets
        # and clear of each other's corridors.
        a = Position(190.0, 200.0)
        b = Position(200.0, 190.0)
        assert model(a, b)
        assert not MODEL(a, b)  # the 20 m-clearance model connects them


class TestVectorizedMask:
    def test_blocks_many_matches_scalar(self):
        rng = np.random.default_rng(7)
        tx = rng.uniform(-20.0, 420.0, size=(2, 200))
        rx = rng.uniform(-20.0, 420.0, size=(2, 200))
        # Endpoints 0-199 transmit, 200-399 receive.
        links = np.arange(200)
        mask = MODEL.blocks_many(
            np.concatenate((tx[0], rx[0])),
            np.concatenate((tx[1], rx[1])),
            links,
            links + 200,
        )
        for k in range(tx.shape[1]):
            scalar = MODEL(
                Position(tx[0][k], tx[1][k]), Position(rx[0][k], rx[1][k])
            )
            assert bool(mask[k]) == scalar
        assert mask.tolist() == reference_blocks(MODEL, *tx, *rx).tolist()

    def test_empty_input_gives_empty_mask(self):
        empty = np.array([])
        links = np.array([], dtype=np.intp)
        assert MODEL.blocks_many(empty, empty, links, links).shape == (0,)
        # Labelled endpoints with no link between them.
        xs = np.array([0.0, 200.0])
        assert MODEL.blocks_many(xs, xs, links, links).shape == (0,)


def _streets(gap):
    """0-4 street centerlines whose adjacent gaps are drawn from ``gap``,
    handed over in shuffled order (the model sorts them)."""
    return st.tuples(
        st.floats(-2000.0, 2000.0),
        st.lists(gap, max_size=3),
        st.randoms(use_true_random=False),
    ).map(_lay_out)


def _lay_out(spec):
    start, gaps, rnd = spec
    streets = [start]
    for g in gaps:
        streets.append(streets[-1] + g)
    rnd.shuffle(streets)
    return tuple(streets)


@st.composite
def _models(draw):
    """Random valid models, single-axis ones (no street on one axis)
    included, with corner clearance zero or up to just under half the
    smallest street spacing."""
    half_width = draw(st.floats(0.5, 40.0))
    gap = st.floats(2.0 * half_width, 12.0 * half_width, exclude_min=True)
    xs = draw(_streets(gap))
    ys = draw(_streets(gap))
    assume(xs or ys)
    ordered = [sorted(xs), sorted(ys)]
    gaps = [b - a for axis in ordered for a, b in zip(axis, axis[1:])]
    assume(not gaps or min(gaps) > 2.0 * half_width)
    limit = min(gaps) / 2.0 if gaps else 6.0 * half_width
    clearance = draw(
        st.one_of(st.just(0.0), st.floats(0.0, limit, exclude_max=True))
    )
    return ManhattanShadowing(xs, ys, half_width, clearance)


def _ulps(value):
    """``value`` and the floats one ulp either side of it."""
    return [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)]


def _boundary_points(model, rng):
    """Points exactly at ``half_width`` from streets and at
    ``corner_clearance`` from intersections, and one ulp either side."""
    hw = model.half_width
    c = model.corner_clearance
    far = 1e4
    points = []
    for sy in model.street_ys:
        along = rng.uniform(-far, far)
        for y in _ulps(sy + hw) + _ulps(sy - hw):
            points.append((along, y))
    for sx in model.street_xs:
        along = rng.uniform(-far, far)
        for x in _ulps(sx + hw) + _ulps(sx - hw):
            points.append((x, along))
    for sx in model.street_xs:
        for sy in model.street_ys:
            for x in _ulps(sx + c) + _ulps(sx - c):
                points.append((x, sy))
            for y in _ulps(sy + c) + _ulps(sy - c):
                points.append((sx, y))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            x = sx + c * math.cos(theta)
            for y in _ulps(sy + c * math.sin(theta)):
                points.append((x, y))
    return points


class TestMatchesPairwiseReference:
    @settings(max_examples=200, deadline=None)
    @given(
        model=_models(),
        seed=st.integers(0, 2**32 - 1),
        n_random=st.integers(0, 12),
    )
    def test_blocks_many_equals_reference(self, model, seed, n_random):
        rng = np.random.default_rng(seed)
        points = _boundary_points(model, rng)
        rng.shuffle(points)
        points = points[:30]
        # Random points near the streets, where labels are decided.
        xs_all = model.street_xs or (0.0,)
        ys_all = model.street_ys or (0.0,)
        reach = 2.0 * (model.half_width + model.corner_clearance)
        for _ in range(n_random):
            points.append((
                rng.choice(xs_all) + rng.uniform(-reach, reach),
                rng.choice(ys_all) + rng.uniform(-reach, reach),
            ))
        assume(points)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        # Every ordered pair, self-links included: each endpoint is shared
        # by 2n links.
        n = len(points)
        src = np.repeat(np.arange(n), n)
        dst = np.tile(np.arange(n), n)
        got = model.blocks_many(xs, ys, src, dst)
        want = reference_blocks(model, xs[src], ys[src], xs[dst], ys[dst])
        assert got.tolist() == want.tolist()


class TestGeometryHelpers:
    def test_on_street(self):
        assert MODEL.on_street(Position(100.0, 3.0))
        assert not MODEL.on_street(Position(100.0, 100.0))

    def test_intersections_enumerate_the_grid(self):
        points = MODEL.intersections()
        assert len(points) == 9
        assert Position(200.0, 200.0) in points


class TestValidation:
    def test_needs_a_street_per_axis(self):
        with pytest.raises(ValueError):
            ManhattanShadowing.for_grid(0, 3, 200.0, half_width=6.0)

    def test_half_width_must_be_positive(self):
        with pytest.raises(ValueError):
            ManhattanShadowing.for_grid(3, 3, 200.0, half_width=0.0)

    def test_negative_clearance_rejected(self):
        with pytest.raises(ValueError):
            ManhattanShadowing.for_grid(
                3, 3, 200.0, half_width=6.0, corner_clearance=-1.0
            )

    def test_streets_are_sorted(self):
        model = ManhattanShadowing((400.0, 0.0, 200.0), (200.0, 0.0), 6.0)
        assert model.street_xs == (0.0, 200.0, 400.0)
        assert model.street_ys == (0.0, 200.0)

    def test_overlapping_corridors_rejected(self):
        # 12 m apart at a 6 m half-width: a point can sit in both corridors.
        with pytest.raises(ValueError, match="half_width"):
            ManhattanShadowing((0.0, 200.0), (0.0, 12.0), 6.0)

    def test_clearance_of_half_a_block_rejected(self):
        # Corner discs of 100 m around intersections 200 m apart touch.
        with pytest.raises(ValueError, match="corner_clearance"):
            ManhattanShadowing.for_grid(
                3, 3, 200.0, half_width=6.0, corner_clearance=100.0
            )
