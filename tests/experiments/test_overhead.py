"""Tests for the mitigation overhead model."""


from repro.experiments.overhead import MitigationCost, analyse, format_analysis
from repro.radio.channel import ChannelStats
from repro.radio.frames import FrameKind


def make_stats(beacons_sent=100, beacons_delivered=3000, unicasts=50):
    stats = ChannelStats()
    stats.frames_sent = beacons_sent + unicasts
    stats.sent_by_kind = {
        FrameKind.BEACON: beacons_sent,
        FrameKind.GEO_UNICAST: unicasts,
    }
    stats.delivered_by_kind = {FrameKind.BEACON: beacons_delivered}
    return stats


def test_analyse_returns_three_options():
    costs = analyse(make_stats())
    assert set(costs) == {"encrypt beacons", "per-hop ACKs", "plausibility check"}


def test_plausibility_check_is_free():
    costs = analyse(make_stats())
    check = costs["plausibility check"]
    assert check.extra_bytes_on_air == 0
    assert check.extra_crypto_ms == 0
    assert check.extra_frames == 0


def test_encryption_cost_scales_with_receivers():
    sparse = analyse(make_stats(beacons_delivered=100))
    dense = analyse(make_stats(beacons_delivered=10000))
    assert (
        dense["encrypt beacons"].extra_crypto_ms
        > sparse["encrypt beacons"].extra_crypto_ms
    )


def test_ack_cost_scales_with_forwards():
    few = analyse(make_stats(unicasts=10))
    many = analyse(make_stats(unicasts=1000))
    assert many["per-hop ACKs"].extra_frames > few["per-hop ACKs"].extra_frames
    assert (
        many["per-hop ACKs"].extra_bytes_on_air
        > few["per-hop ACKs"].extra_bytes_on_air
    )


def test_byte_model_is_pinned():
    """One 104-byte signed beacon-sized ACK per GF unicast (4 B basic
    header + 28 B long PV + 8 B certificate digest + 64 B signature), and
    40 encryption-envelope bytes per beacon sent."""
    costs = analyse(make_stats(beacons_sent=7, unicasts=3))
    assert costs["per-hop ACKs"].extra_bytes_on_air == 3 * 104
    assert costs["encrypt beacons"].extra_bytes_on_air == 7 * 40


def test_format_analysis_readable():
    text = format_analysis(make_stats(), duration=200.0)
    assert "encrypt beacons" in text
    assert "plausibility check" in text
    assert "zero channel and crypto overhead" in text


def test_analysis_on_real_run():
    import dataclasses

    from repro.experiments import ExperimentConfig
    from repro.experiments.world import World

    config = ExperimentConfig.inter_area_default(duration=10.0)
    config = config.with_(road=dataclasses.replace(config.road, length=1200.0))
    world = World(config, attacked=False, seed=2)
    world.run()
    costs = analyse(world.channel.stats)
    assert costs["encrypt beacons"].extra_crypto_ms > 0
    assert costs["per-hop ACKs"].extra_frames > 0


def test_row_formatting():
    cost = MitigationCost(
        name="x", extra_bytes_on_air=2048.0, extra_crypto_ms=10.0,
        extra_frames=5, notes="n",
    )
    assert "2.0 KiB" in cost.row()
