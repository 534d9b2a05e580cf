"""Tests for Contention-Based Forwarding."""

import pytest

from repro.geo.areas import RectangularArea
from repro.geo.position import Position, PositionVector
from repro.geonet.cbf import CbfForwarder, contention_timeout
from repro.geonet.config import GeoNetConfig
from repro.geonet.packets import GbcBody, GeoBroadcastPacket
from repro.security.ca import CertificateAuthority
from repro.security.signing import sign
from repro.sim.engine import Simulator

CONFIG = GeoNetConfig(to_min=0.001, to_max=0.100, dist_max=1283.0)
_CA = CertificateAuthority()
_CREDS = _CA.enroll("cbf-test-source")


def make_packet(seq=1, rhl=10, sender_x=0.0, created_at=0.0):
    body = GbcBody(
        source_addr=1,
        sequence_number=seq,
        source_pv=PositionVector(Position(0, 0), 0.0, 0.0, created_at),
        area=RectangularArea(-100, 5000, -50, 50),
        payload="flood",
        lifetime=60.0,
        created_at=created_at,
    )
    return GeoBroadcastPacket(
        signed=sign(body, _CREDS),
        rhl=rhl,
        sender_addr=1,
        sender_position=Position(sender_x, 0),
    )


class Harness:
    def __init__(self, x=300.0, config=CONFIG):
        self.sim = Simulator()
        self.delivered = []
        self.broadcasts = []
        self.broadcast_times = []
        self.cbf = CbfForwarder(
            sim=self.sim,
            config=config,
            get_position=lambda: Position(x, 0),
            deliver=self.delivered.append,
            broadcast=self._broadcast,
        )

    def _broadcast(self, packet, rhl):
        self.broadcasts.append((packet, rhl))
        self.broadcast_times.append(self.sim.now)


class TestContentionTimeout:
    def test_zero_distance_gives_to_max(self):
        assert contention_timeout(0.0, CONFIG) == pytest.approx(0.100)

    def test_dist_max_gives_to_min(self):
        assert contention_timeout(1283.0, CONFIG) == pytest.approx(0.001)

    def test_beyond_dist_max_clamps_to_min(self):
        assert contention_timeout(5000.0, CONFIG) == pytest.approx(0.001)

    def test_linear_in_between(self):
        half = contention_timeout(1283.0 / 2, CONFIG)
        assert half == pytest.approx((0.100 + 0.001) / 2)

    def test_farther_nodes_time_out_earlier(self):
        near = contention_timeout(100.0, CONFIG)
        far = contention_timeout(400.0, CONFIG)
        assert far < near

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            contention_timeout(-1.0, CONFIG)


class TestCbfStateMachine:
    def test_first_reception_delivers_and_buffers(self):
        h = Harness()
        packet = make_packet()
        h.cbf.handle_broadcast(packet)
        assert len(h.delivered) == 1
        assert h.cbf.is_buffered(packet.packet_id)

    def test_timer_expiry_rebroadcasts_with_decremented_rhl(self):
        h = Harness(x=300.0)
        h.cbf.handle_broadcast(make_packet(rhl=10))
        h.sim.run_until(0.2)
        assert len(h.broadcasts) == 1
        _packet, rhl = h.broadcasts[0]
        assert rhl == 9

    def test_timer_matches_distance_formula(self):
        h = Harness(x=300.0)
        h.cbf.handle_broadcast(make_packet())
        h.sim.run_until(1.0)
        expected = contention_timeout(300.0, CONFIG)
        assert h.broadcast_times == [pytest.approx(expected)]

    def test_duplicate_before_expiry_cancels(self):
        h = Harness()
        packet = make_packet(rhl=10)
        h.cbf.handle_broadcast(packet)
        duplicate = packet.next_hop_copy(
            rhl=9, sender_addr=2, sender_position=Position(400, 0)
        )
        h.cbf.handle_broadcast(duplicate)
        h.sim.run_until(0.5)
        assert h.broadcasts == []
        assert h.cbf.stats.suppressed_by_duplicate == 1
        assert len(h.delivered) == 1  # delivered once, on first reception

    def test_duplicate_after_forwarding_is_ignored(self):
        h = Harness()
        packet = make_packet()
        h.cbf.handle_broadcast(packet)
        h.sim.run_until(0.5)  # timer expires, rebroadcast happens
        h.cbf.handle_broadcast(packet)
        assert len(h.broadcasts) == 1
        assert h.cbf.stats.late_duplicates_ignored == 1

    def test_rhl_one_delivers_but_never_forwards(self):
        h = Harness()
        h.cbf.handle_broadcast(make_packet(rhl=1))
        h.sim.run_until(0.5)
        assert len(h.delivered) == 1
        assert h.broadcasts == []
        assert h.cbf.stats.rhl_exhausted == 1

    def test_different_sequence_numbers_are_independent(self):
        h = Harness()
        h.cbf.handle_broadcast(make_packet(seq=1))
        h.cbf.handle_broadcast(make_packet(seq=2))
        h.sim.run_until(0.5)
        assert len(h.broadcasts) == 2

    def test_expired_packet_not_forwarded(self):
        h = Harness()
        h.sim.schedule(
            61.0, lambda: h.cbf.handle_broadcast(make_packet(created_at=0.0))
        )
        h.sim.run_until(62.0)
        assert len(h.delivered) == 1  # still delivered to the application
        assert h.broadcasts == []

    def test_originate_broadcasts_without_decrement(self):
        h = Harness()
        h.cbf.originate(make_packet(rhl=10))
        assert h.broadcasts[0][1] == 10

    def test_originate_marks_done(self):
        h = Harness()
        packet = make_packet()
        h.cbf.originate(packet)
        h.cbf.handle_broadcast(packet)  # echo of our own flood
        assert len(h.delivered) == 0
        assert h.cbf.stats.late_duplicates_ignored == 1

    def test_mark_done_prevents_buffering(self):
        h = Harness()
        packet = make_packet()
        h.cbf.mark_done(packet.packet_id)
        h.cbf.handle_broadcast(packet)
        assert not h.cbf.is_buffered(packet.packet_id)
        assert h.delivered == []

    def test_shutdown_cancels_pending_timers(self):
        h = Harness()
        h.cbf.handle_broadcast(make_packet())
        h.cbf.shutdown()
        h.sim.run_until(0.5)
        assert h.broadcasts == []


class TestRhlCheck:
    def make_checked(self, x=300.0, threshold=3):
        config = GeoNetConfig(
            to_min=0.001,
            to_max=0.100,
            dist_max=1283.0,
            rhl_check=True,
            rhl_drop_threshold=threshold,
        )
        return Harness(x=x, config=config)

    def test_steep_rhl_drop_not_accepted_as_duplicate(self):
        h = self.make_checked()
        packet = make_packet(rhl=10)
        h.cbf.handle_broadcast(packet)
        attack_copy = packet.next_hop_copy(
            rhl=1, sender_addr=1, sender_position=Position(0, 0)
        )
        h.cbf.handle_broadcast(attack_copy)
        h.sim.run_until(0.5)
        assert len(h.broadcasts) == 1  # still forwarded
        assert h.cbf.stats.rhl_check_rejections == 1

    def test_legitimate_peer_duplicate_still_suppresses(self):
        h = self.make_checked()
        packet = make_packet(rhl=10)
        h.cbf.handle_broadcast(packet)
        peer_copy = packet.next_hop_copy(
            rhl=9, sender_addr=3, sender_position=Position(500, 0)
        )
        h.cbf.handle_broadcast(peer_copy)
        h.sim.run_until(0.5)
        assert h.broadcasts == []
        assert h.cbf.stats.suppressed_by_duplicate == 1

    def test_drop_at_threshold_accepted(self):
        h = self.make_checked(threshold=3)
        packet = make_packet(rhl=10)
        h.cbf.handle_broadcast(packet)
        borderline = packet.next_hop_copy(
            rhl=7, sender_addr=3, sender_position=Position(500, 0)
        )
        h.cbf.handle_broadcast(borderline)
        h.sim.run_until(0.5)
        assert h.broadcasts == []


class TestDoneSetExpiry:
    """The duplicate-detection memory is bounded by packet lifetime."""

    @staticmethod
    def sweep(h, now):
        """Force an immediate sweep (tests bypass the rate-limit gate)."""
        h.cbf._next_done_sweep = 0.0
        h.cbf._sweep_done(now)

    def test_done_entry_expires_after_lifetime_plus_grace(self):
        h = Harness()
        packet = make_packet(seq=1, created_at=0.0)  # lifetime 60 s
        h.cbf.handle_broadcast(packet)
        h.sim.run_until(1.0)  # forwarded; now in _done
        assert h.cbf.has_processed(packet.packet_id)
        self.sweep(h, 61.5)  # past lifetime + grace
        assert not h.cbf.has_processed(packet.packet_id)

    def test_done_entry_survives_until_lifetime_end(self):
        h = Harness()
        packet = make_packet(seq=1, created_at=0.0)
        h.cbf.handle_broadcast(packet)
        h.sim.run_until(1.0)
        self.sweep(h, 59.0)  # still within lifetime: must be retained
        assert h.cbf.has_processed(packet.packet_id)

    def test_done_set_does_not_grow_without_bound(self):
        h = Harness()
        for seq in range(200):
            created = float(seq)
            h.sim.run_until(created + 0.5)
            h.cbf.handle_broadcast(
                make_packet(seq=seq, created_at=created, rhl=1)
            )
        # 200 packets were processed but the ones whose lifetime (60 s) has
        # lapsed were swept during later receptions.
        assert h.cbf.stats.first_receptions == 200
        assert len(h.cbf._done) < 80

    def test_mark_done_without_expiry_uses_default_lifetime(self):
        h = Harness()
        h.cbf.mark_done((9, 9))
        assert h.cbf.has_processed((9, 9))
        self.sweep(h, CONFIG.default_lifetime)  # still inside window
        assert h.cbf.has_processed((9, 9))
        self.sweep(h, CONFIG.default_lifetime + 2.0)
        assert not h.cbf.has_processed((9, 9))

    def test_mark_done_only_extends_never_shortens(self):
        h = Harness()
        h.cbf.mark_done((9, 9), expires_at=100.0)
        h.cbf.mark_done((9, 9), expires_at=10.0)  # later, shorter: ignored
        self.sweep(h, 50.0)
        assert h.cbf.has_processed((9, 9))


class TestCsmaDeferExhaustion:
    """A copy whose defer budget runs out gets exactly one terminal outcome."""

    def make_harness(self, busy, ledger=None):
        from repro.geonet.cbf import _MAX_CSMA_DEFERS  # noqa: F401

        sim = Simulator()
        delivered, broadcasts = [], []
        cbf = CbfForwarder(
            sim=sim,
            config=CONFIG,
            get_position=lambda: Position(300, 0),
            deliver=delivered.append,
            broadcast=lambda p, rhl: broadcasts.append((p, rhl)),
            medium_busy=busy,
            ledger=ledger,
        )
        return sim, cbf, broadcasts

    def test_exhausted_copy_is_dropped_not_force_broadcast(self):
        sim, cbf, broadcasts = self.make_harness(busy=lambda: True)
        cbf.handle_broadcast(make_packet())
        sim.run_until(5.0)
        from repro.geonet.cbf import _MAX_CSMA_DEFERS

        assert cbf.stats.csma_defers == _MAX_CSMA_DEFERS
        assert cbf.stats.csma_defer_exhaustions == 1
        assert broadcasts == []
        assert cbf._buffers == {}

    def test_medium_clearing_mid_budget_still_broadcasts(self):
        state = {"busy": True}
        sim, cbf, broadcasts = self.make_harness(busy=lambda: state["busy"])
        cbf.handle_broadcast(make_packet())
        # First expiry at ~0.077 s (300 m), defers every 1 ms:
        # clear the medium a few defers into the budget.
        sim.schedule(0.080, lambda: state.update(busy=False))
        sim.run_until(5.0)
        assert cbf.stats.csma_defer_exhaustions == 0
        assert len(broadcasts) == 1

    def test_exhaustion_is_a_terminal_ledger_outcome(self):
        from repro.observability.ledger import PacketLedger, reasons

        ledger = PacketLedger()
        sim, cbf, _ = self.make_harness(busy=lambda: True, ledger=ledger)
        packet = make_packet()
        ledger.originated("gbc", packet.packet_id, 0.0, 1)
        cbf.handle_broadcast(packet)
        sim.run_until(5.0)
        record = ledger.record("gbc", packet.packet_id)
        assert record.outcome == reasons.CBF_DEFER_EXHAUSTED
        # Conservation: exactly one terminal outcome for the one packet.
        assert sum(ledger.outcome_totals().values()) == len(ledger)

    def test_duplicate_during_defer_still_wins(self):
        from repro.observability.ledger import PacketLedger, reasons

        ledger = PacketLedger()
        sim, cbf, broadcasts = self.make_harness(
            busy=lambda: True, ledger=ledger
        )
        packet = make_packet(rhl=10)
        ledger.originated("gbc", packet.packet_id, 0.0, 1)
        cbf.handle_broadcast(packet)
        sim.run_until(0.080)  # a few defers in
        cbf.handle_broadcast(make_packet(rhl=9, sender_x=500.0))
        sim.run_until(5.0)
        assert cbf.stats.suppressed_by_duplicate == 1
        assert cbf.stats.csma_defer_exhaustions == 0
        record = ledger.record("gbc", packet.packet_id)
        assert record.outcome == reasons.CBF_SUPPRESSED
        assert sum(ledger.outcome_totals().values()) == len(ledger)
