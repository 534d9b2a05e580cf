"""Property-based tests (hypothesis) for core invariants."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.vulnerability import VulnerabilityModel
from repro.geo.areas import CircularArea, RectangularArea
from repro.geo.position import Position, PositionVector
from repro.geonet.cbf import contention_timeout
from repro.geonet.checks import duplicate_rhl_plausible, position_plausible
from repro.geonet.config import GeoNetConfig
from repro.geonet.loct import LocationTable
from repro.security.signing import canonical_bytes
from repro.traffic.idm import IdmParameters, idm_acceleration
from repro.traffic.road import Direction

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive = st.floats(
    min_value=0.1, max_value=1e5, allow_nan=False, allow_infinity=False
)
positions = st.builds(Position, finite, finite)


class TestGeometryProperties:
    @given(positions, positions)
    def test_distance_symmetry(self, a, b):
        assert math.isclose(
            a.distance_to(b), b.distance_to(a), rel_tol=1e-12, abs_tol=1e-12
        )

    @given(positions, positions, positions)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(positions, positive)
    def test_circle_contains_iff_distance_zero(self, center, radius):
        area = CircularArea(center, radius)
        probe = center.translated(radius * 2, 0)
        assert area.contains(probe) == (area.distance_from(probe) == 0.0)

    @given(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        positive,
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        positive,
        positions,
    )
    def test_rectangle_distance_zero_iff_contains(self, x0, w, y0, h, probe):
        area = RectangularArea(x0, x0 + w, y0, y0 + h)
        assert (area.distance_from(probe) == 0.0) == area.contains(probe)

    @given(
        positions,
        st.floats(min_value=0, max_value=50, allow_nan=False),
        st.floats(min_value=0, max_value=2 * math.pi, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    def test_pv_extrapolation_consistent_with_speed(
        self, origin, speed, heading, t0, dt
    ):
        pv = PositionVector(origin, speed, heading, timestamp=t0)
        moved = pv.extrapolate(t0 + dt)
        assert math.isclose(
            origin.distance_to(moved), speed * dt, rel_tol=1e-9, abs_tol=1e-6
        )


class TestCbfTimeoutProperties:
    CONFIG = GeoNetConfig(to_min=0.001, to_max=0.100, dist_max=1283.0)

    @given(st.floats(min_value=0, max_value=5000, allow_nan=False))
    def test_timeout_within_bounds(self, dist):
        to = contention_timeout(dist, self.CONFIG)
        assert self.CONFIG.to_min <= to <= self.CONFIG.to_max

    @given(
        st.floats(min_value=0, max_value=1283, allow_nan=False),
        st.floats(min_value=0, max_value=1283, allow_nan=False),
    )
    def test_timeout_monotonically_decreasing(self, d1, d2):
        lo, hi = sorted([d1, d2])
        assert contention_timeout(hi, self.CONFIG) <= contention_timeout(
            lo, self.CONFIG
        ) + 1e-12


class TestIdmProperties:
    PARAMS = IdmParameters()

    @given(
        st.floats(min_value=0, max_value=60, allow_nan=False),
        st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
        st.floats(min_value=0, max_value=60, allow_nan=False),
    )
    def test_acceleration_bounded_above(self, v, gap, lead_v):
        a = idm_acceleration(v, gap, lead_v, self.PARAMS)
        assert a <= self.PARAMS.max_acceleration

    @given(
        st.floats(min_value=0, max_value=60, allow_nan=False),
        st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
        st.floats(min_value=0, max_value=60, allow_nan=False),
    )
    def test_smaller_gap_never_accelerates_more(self, v, gap, lead_v):
        tighter = idm_acceleration(v, gap / 2, lead_v, self.PARAMS)
        looser = idm_acceleration(v, gap, lead_v, self.PARAMS)
        assert tighter <= looser + 1e-9

    @given(st.floats(min_value=0, max_value=60, allow_nan=False))
    def test_free_road_sign(self, v):
        a = idm_acceleration(v, math.inf, 0.0, self.PARAMS)
        if v < self.PARAMS.desired_velocity:
            assert a > 0
        elif v > self.PARAMS.desired_velocity:
            assert a < 0


class TestLocationTableProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=4000, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_live_entries_always_within_ttl(self, updates):
        loct = LocationTable(ttl=20.0)
        now = 0.0
        for addr, dt, x in updates:
            now += dt
            pv = PositionVector(Position(x, 0), 0.0, 0.0, now)
            loct.update(addr, pv, now)
        for entry in loct.live_entries(now):
            assert now - entry.updated_at <= 20.0

    @given(
        st.lists(st.integers(min_value=1, max_value=10), max_size=30),
    )
    def test_update_is_idempotent_on_count(self, addrs):
        loct = LocationTable(ttl=20.0)
        for addr in addrs:
            pv = PositionVector(Position(0, 0), 0.0, 0.0, 0.0)
            loct.update(addr, pv, 0.0)
        assert len(loct) == len(set(addrs))


class TestCheckProperties:
    @given(positions, positions, positive)
    def test_position_plausible_symmetric(self, a, b, threshold):
        assert position_plausible(a, b, threshold) == position_plausible(
            b, a, threshold
        )

    @given(
        st.integers(min_value=1, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=1, max_value=10),
    )
    def test_rhl_check_accepts_iff_drop_small(self, first, dup, threshold):
        assert duplicate_rhl_plausible(first, dup, threshold) == (
            first - dup <= threshold
        )

    @given(st.integers(min_value=2, max_value=255), st.integers(min_value=1, max_value=10))
    def test_rhl_check_always_accepts_one_hop_peers(self, first, threshold):
        assert duplicate_rhl_plausible(first, first - 1, threshold)

    @given(st.integers(min_value=5, max_value=255))
    def test_rhl_check_always_rejects_attacker_rewrite(self, first):
        # The attacker must set RHL to 1; for any source RHL >= 5 the
        # default threshold of 3 flags it.
        assert not duplicate_rhl_plausible(first, 1, 3)


class TestVulnerabilityProperties:
    @given(
        st.floats(min_value=100, max_value=3900, allow_nan=False),
        st.floats(min_value=50, max_value=2000, allow_nan=False),
        st.floats(min_value=50, max_value=1000, allow_nan=False),
        st.floats(min_value=0, max_value=4000, allow_nan=False),
    )
    def test_fca_sources_vulnerable_both_ways(
        self, attacker_x, attack_range, vehicle_range, x
    ):
        model = VulnerabilityModel(attacker_x, attack_range, vehicle_range, 4000.0)
        if model.in_fully_covered_area(x):
            assert model.vulnerable(x, Direction.EAST)
            assert model.vulnerable(x, Direction.WEST)

    @given(
        st.floats(min_value=100, max_value=3900, allow_nan=False),
        st.floats(min_value=50, max_value=2000, allow_nan=False),
        st.floats(min_value=50, max_value=1000, allow_nan=False),
    )
    def test_eastbound_vulnerability_monotone_in_x(
        self, attacker_x, attack_range, vehicle_range
    ):
        model = VulnerabilityModel(attacker_x, attack_range, vehicle_range, 4000.0)
        # If x is eastbound-vulnerable, every source west of it is too.
        boundary = attacker_x + model.surplus
        assert model.vulnerable(boundary - 1.0, Direction.EAST)
        assert not model.vulnerable(boundary + 1.0, Direction.EAST)


class TestCanonicalBytesProperties:
    @given(st.floats(allow_nan=False), st.text(max_size=20), st.integers())
    def test_canonical_bytes_injective_on_simple_bodies(self, f, s, i):
        from dataclasses import make_dataclass

        Body = make_dataclass("Body", [("f", float), ("s", str), ("i", int)], frozen=True)
        a = Body(f, s, i)
        b = Body(f, s, i + 1)
        assert canonical_bytes(a) == canonical_bytes(Body(f, s, i))
        assert canonical_bytes(a) != canonical_bytes(b)

