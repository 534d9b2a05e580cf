"""Bounded-state guarantees of the misbehavior detector.

The original detector kept every first-heard beacon key, every first-seen
RHL, and every flagged replay key for the whole run, and only pruned the
beacon table on *insert* once it crossed 4096 entries — a detector whose
radio went quiet after a busy spell never released anything.  These tests
pin the fix: records expire on their semantic horizons (dedup window for
beacons, packet lifetime for RHL records), the periodic sweep shrinks a
quiet detector, and the cap applies to both tables.
"""

import pytest

from repro.core.detection import MisbehaviorDetector
from repro.geo.position import Position, PositionVector


def pv(x: float, timestamp: float) -> PositionVector:
    return PositionVector(
        position=Position(x, 0.0), speed=0.0, heading=0.0, timestamp=timestamp
    )


def make_detector(testbed, **kwargs):
    node = testbed.add_node(0.0, beaconing=False)
    kwargs.setdefault("prune_interval", None)
    return MisbehaviorDetector(node, **kwargs)


def feed_beacons(detector, n, *, start_addr=1000, t=0.0):
    """n distinct first hearings via the beacon tap (signature-free)."""
    detector.observe_beacons(
        [(start_addr + i, pv(10.0 * i, t)) for i in range(n)], t
    )


class TestBeaconExpiry:
    def test_first_heard_records_expire_with_the_dedup_window(self, testbed):
        detector = make_detector(testbed, dedup_window=2.0)
        feed_beacons(detector, 50, t=0.0)
        assert len(detector._beacons_heard) == 50
        detector.sweep(5.0)
        assert len(detector._beacons_heard) == 0

    def test_replay_after_expiry_is_a_fresh_hearing_not_an_alert(self, testbed):
        detector = make_detector(testbed, dedup_window=2.0)
        detector.observe_beacons([(7, pv(0.0, 0.0))], 0.0)
        detector.sweep(10.0)
        # Outside the window a duplicate is un-witnessable anyway (the
        # router would have stale-rejected it); the detector records it
        # as a new first hearing instead of alerting.
        detector.observe_beacons([(7, pv(0.0, 0.0))], 10.0)
        assert detector.stats.replayed_beacons == 0
        assert len(detector._beacons_heard) == 1

    def test_flagged_replay_keys_are_pruned_with_their_beacons(self, testbed):
        detector = make_detector(testbed, dedup_window=2.0)
        detector.observe_beacons([(7, pv(0.0, 0.0))], 0.0)
        detector.observe_beacons([(7, pv(0.0, 0.0))], 0.5)
        assert detector.stats.replayed_beacons == 1
        assert len(detector._flagged_replays) == 1
        detector.sweep(5.0)
        assert len(detector._flagged_replays) == 0


class TestRhlExpiry:
    def test_rhl_records_expire_with_the_packet_lifetime(self, testbed):
        detector = make_detector(testbed, packet_lifetime=10.0)
        detector._first_rhl[(1, 1)] = (5, 0.0)
        detector._first_rhl[(1, 2)] = (5, 8.0)
        detector.sweep(12.0)
        assert (1, 1) not in detector._first_rhl
        assert (1, 2) in detector._first_rhl


class TestCap:
    def test_insert_time_cap_bounds_a_hot_beacon_table(self, testbed):
        detector = make_detector(testbed, max_tracked=64, dedup_window=2.0)
        # Everything lands in one dedup window, so the cap-triggered prune
        # cannot expire anything — the table still may not run away.
        for i in range(10):
            feed_beacons(detector, 64, start_addr=10_000 * i, t=0.1 * i)
        assert len(detector._beacons_heard) <= 64 + 1

    def test_cap_triggered_prune_expires_old_windows(self, testbed):
        detector = make_detector(testbed, max_tracked=64, dedup_window=2.0)
        feed_beacons(detector, 63, t=0.0)
        feed_beacons(detector, 4, start_addr=9000, t=10.0)
        # Crossing the cap at t=10 pruned the t=0 generation entirely.
        assert len(detector._beacons_heard) == 4


class TestPeriodicSweep:
    def test_quiet_detector_releases_state_without_new_traffic(self, testbed):
        node = testbed.add_node(0.0, beaconing=False)
        detector = MisbehaviorDetector(node, prune_interval=5.0)
        detector.observe_beacons(
            [(1000 + i, pv(10.0 * i, testbed.sim.now)) for i in range(40)],
            testbed.sim.now,
        )
        detector._first_rhl[(1, 1)] = (5, testbed.sim.now)
        assert detector.tracked_state_size() == 41
        # No further traffic: only the scheduled sweep can shrink it.
        testbed.sim.run_until(testbed.sim.now + 90.0)
        assert detector.tracked_state_size() == 0

    def test_prune_interval_none_schedules_no_sweep(self, testbed):
        detector = make_detector(testbed, prune_interval=None)
        assert detector._sweep_process is None

    def test_stop_cancels_sweep_and_releases_bulk_tap(self, testbed):
        node = testbed.add_node(0.0, beaconing=False)
        detector = MisbehaviorDetector(node, prune_interval=5.0)
        assert detector.observe_beacons in node.router.beacon_taps
        detector.stop()
        assert detector.observe_beacons not in node.router.beacon_taps
        assert detector._sweep_process is None
        detector.stop()  # idempotent


class TestValidation:
    def test_bad_knobs_rejected(self, testbed):
        node = testbed.add_node(0.0, beaconing=False)
        with pytest.raises(ValueError):
            MisbehaviorDetector(node, max_tracked=0)
        with pytest.raises(ValueError):
            MisbehaviorDetector(node, prune_interval=0.0)
        with pytest.raises(ValueError):
            MisbehaviorDetector(node, packet_lifetime=-1.0)
