"""Unit tests for the packet-lifecycle ledger."""

from repro.observability import (
    DROP_REASONS,
    OUTCOMES,
    PacketLedger,
    reasons,
)


def test_taxonomy_is_complete_and_ordered():
    assert OUTCOMES[0] == reasons.DELIVERED
    assert set(OUTCOMES) == {reasons.DELIVERED, *DROP_REASONS}
    assert len(OUTCOMES) == len(set(OUTCOMES))


def test_untracked_events_are_ignored():
    ledger = PacketLedger()
    ledger.delivered("gbc", (1, 1), 0.5, 9)
    ledger.dropped("gbc", (1, 1), 0.5, 9, reasons.RHL_EXHAUSTED)
    ledger.hop("gbc", (1, 1), 0.5, 9, "gf-forward")
    assert len(ledger) == 0
    assert ledger.outcome_totals() == {}


def test_delivered_wins_over_any_drop():
    ledger = PacketLedger()
    ledger.originated("gbc", (1, 1), 0.0, 1)
    ledger.dropped("gbc", (1, 1), 0.1, 2, reasons.CBF_SUPPRESSED)
    ledger.delivered("gbc", (1, 1), 0.2, 3)
    ledger.dropped("gbc", (1, 1), 0.3, 4, reasons.LIFETIME_EXPIRED)
    record = ledger.record("gbc", (1, 1))
    assert record.outcome == reasons.DELIVERED
    assert record.first_delivery == 0.2
    # the copy-level tallies survive for flood analyses
    assert record.drops[reasons.CBF_SUPPRESSED] == 1
    assert record.drops[reasons.LIFETIME_EXPIRED] == 1


def test_chronologically_first_drop_is_the_outcome():
    ledger = PacketLedger()
    ledger.originated("gbc", (1, 1), 0.0, 1)
    ledger.dropped("gbc", (1, 1), 0.5, 2, reasons.RHL_EXHAUSTED)
    # an earlier-timestamped drop reported later still wins
    ledger.dropped("gbc", (1, 1), 0.2, 3, reasons.UNREACHABLE_NEXT_HOP)
    assert ledger.record("gbc", (1, 1)).outcome == reasons.UNREACHABLE_NEXT_HOP


def test_unresolved_packet_lands_in_the_conservation_bucket():
    ledger = PacketLedger()
    ledger.originated("gbc", (1, 1), 0.0, 1)
    assert ledger.record("gbc", (1, 1)).outcome == reasons.IN_FLIGHT_AT_END


def test_gbc_and_guc_namespaces_do_not_collide():
    ledger = PacketLedger()
    ledger.originated("gbc", (1, 1), 0.0, 1)
    ledger.originated("guc", (1, 1), 0.0, 1)
    ledger.delivered("guc", (1, 1), 0.5, 2)
    assert ledger.record("gbc", (1, 1)).outcome == reasons.IN_FLIGHT_AT_END
    assert ledger.record("guc", (1, 1)).outcome == reasons.DELIVERED


def test_outcome_totals_conserve_originations():
    ledger = PacketLedger()
    ledger.originated("gbc", (1, 1), 0.0, 1)
    ledger.originated("gbc", (1, 2), 1.0, 1)
    ledger.originated("gbc", (2, 1), 2.0, 2)
    ledger.delivered("gbc", (1, 1), 1.5, 9)
    ledger.dropped("gbc", (1, 2), 2.5, 9, reasons.RHL_EXHAUSTED)
    totals = ledger.outcome_totals()
    assert sum(totals.values()) == len(ledger) == 3
    assert totals == {
        reasons.DELIVERED: 1,
        reasons.RHL_EXHAUSTED: 1,
        reasons.IN_FLIGHT_AT_END: 1,
    }


def test_journeys_are_off_by_default():
    ledger = PacketLedger()
    ledger.originated("gbc", (1, 1), 0.0, 1)
    ledger.hop("gbc", (1, 1), 0.1, 2, "gf-forward", detail="next-hop=3")
    assert ledger.journey("gbc", (1, 1)) == []


def test_journeys_record_the_full_hop_sequence():
    ledger = PacketLedger(journeys=True)
    ledger.originated("gbc", (1, 1), 0.0, 1)
    ledger.hop("gbc", (1, 1), 0.1, 1, "gf-forward", detail="next-hop=2")
    ledger.dropped(
        "gbc", (1, 1), 0.2, 1, reasons.UNREACHABLE_NEXT_HOP, detail="out-of-range"
    )
    events = ledger.journey("gbc", (1, 1))
    assert [e.action for e in events] == [
        "originated",
        "gf-forward",
        "dropped:unreachable-next-hop",
    ]
    assert "next-hop=2" in events[1].line()


def test_copy_drop_totals_count_every_copy():
    ledger = PacketLedger()
    ledger.originated("gbc", (1, 1), 0.0, 1)
    for _ in range(3):
        ledger.dropped("gbc", (1, 1), 0.5, 2, reasons.CBF_SUPPRESSED)
    assert ledger.copy_drop_totals() == {reasons.CBF_SUPPRESSED: 3}
    # ...but the packet still has exactly one terminal outcome
    assert sum(ledger.outcome_totals().values()) == 1
