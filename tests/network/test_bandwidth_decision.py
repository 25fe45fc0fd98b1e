"""Tests for the link model (``LinkSpec``), the channel and the Eqn.-1 decision."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    LinkSpec,
    SimulatedChannel,
    crossover_bandwidth_mbps,
    should_compress,
)


def test_bandwidth_transmission_time_10mbps():
    # 230 MB AlexNet update over 10 Mbps: 230e6 * 8 / 10e6 = 184 s.
    link = LinkSpec(bandwidth_mbps=10.0)
    assert link.transmission_seconds(230_000_000) == pytest.approx(184.0)


def test_bandwidth_latency_added():
    link = LinkSpec(bandwidth_mbps=100.0, latency_seconds=0.05)
    assert link.transmission_seconds(0) == pytest.approx(0.05)


def test_bandwidth_validation():
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_mbps=0.0)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_mbps=10.0, latency_seconds=-1.0)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_mbps=10.0).transmission_seconds(-5)


def test_transmission_seconds_matches_paper_motivating_example():
    # The introduction's example: a 10 GB update over 10 Mbps takes ~133 minutes
    # (the paper rounds to "approximately 150 minutes").
    seconds = LinkSpec(bandwidth_mbps=10).transmission_seconds(10e9)
    assert seconds == pytest.approx(8000.0)
    assert 100 < seconds / 60 < 160


def test_transmission_seconds_zero_bytes():
    assert LinkSpec(bandwidth_mbps=100).transmission_seconds(0) == 0.0


PI5 = "raspberry-pi-5"

#: (spec fields, original B, sent B, compressor, bound, measured t_C, measured
#: t_D, delivered) -> (t_C, t_D, wire s of the sent bytes, wire s of the
#: original bytes).  Every expected value was recorded at the commit before
#: ``LinkSpec`` became the model, from ``estimate_communication`` (codec
#: seconds), ``encode_upload`` (undelivered uploads bill no decompression) and
#: ``ClientLink.transmission_seconds`` (wire seconds) — the three copies this
#: one table now pins.
LINK_MODEL_CASES = [
    # The paper's AlexNet example on a Pi 5 behind a 10 Mbps uplink.
    (dict(bandwidth_mbps=10.0, device=PI5), 230_000_000, 18_200_000, "sz2", 1e-2, 0.0, 0.0, True,
     3.2508833922261484, 1.6254416961130742, 14.56, 184.0),
    # Measured seconds are ignored on a device link; a lost upload is never decompressed.
    (dict(bandwidth_mbps=10.0, device=PI5), 230_000_000, 18_200_000, "sz2", 1e-2, 9.0, 9.0, False,
     3.2508833922261484, 0.0, 14.56, 184.0),
    (dict(bandwidth_mbps=10.0, device=PI5), 102_000_000, 9_000_001, "sz3", 1e-3, 0.0, 0.0, True,
     3.9321511179645334, 1.9660755589822667, 7.2000008, 81.6),
    (dict(bandwidth_mbps=100.0, device=PI5), 14_000_000, 2_500_000, "zfp", 1e-4, 0.0, 0.0, True,
     0.1450626878043726, 0.0725313439021863, 0.2, 1.12),
    # Past the crossover: codec seconds dominate a 1 Gbps link.
    (dict(bandwidth_mbps=1000.0, device=PI5), 244_000_000, 20_000_000, "sz2", 1e-2, 0.0, 0.0, True,
     3.4487632508833923, 1.7243816254416962, 0.16, 1.952),
    (dict(bandwidth_mbps=10.0, device=PI5), 244_000_000, 60_000_000, "szx", 1e-2, 0.0, 0.0, True,
     0.06941836514060064, 0.03470918257030032, 48.0, 195.2),
    # No bound given: the paper's default REL 1e-2 row.
    (dict(bandwidth_mbps=10.0, device=PI5), 1_000_000, 100_000, "sz2", None, 0.0, 0.0, True,
     0.014134275618374558, 0.007067137809187279, 0.08, 0.8),
    # A codec that names no compressor stays host-measured even on a device link.
    (dict(bandwidth_mbps=10.0, device=PI5), 1_000_000, 100_000, None, None, 0.5, 0.25, True,
     0.5, 0.25, 0.08, 0.8),
    # No device: measured seconds are billed as they are, delivered or not.
    (dict(bandwidth_mbps=10.0), 1_000_000, 100_000, "sz2", 1e-2, 0.5, 0.25, True,
     0.5, 0.25, 0.08, 0.8),
    (dict(bandwidth_mbps=10.0), 1_000_000, 100_000, "sz2", 1e-2, 0.5, 0.0, False,
     0.5, 0.0, 0.08, 0.8),
    (dict(bandwidth_mbps=10.0, device="local"), 4096, 5000, "sz2", 1e-2, 0.001, 0.002, True,
     0.001, 0.002, 0.004, 0.0032768),
    # Latency and the straggler factor: (0.01 + 1_000_003 / 3.125e6) * 10.
    (dict(bandwidth_mbps=25.0, latency_seconds=0.01, straggler_factor=10.0),
     4_000_000, 1_000_003, "sz2", 1e-2, 0.125, 0.0625, True, 0.125, 0.0625, 3.3000096, 12.9),
    # A zero-byte send still pays the latency.
    (dict(bandwidth_mbps=100.0, latency_seconds=0.05), 1024, 0, "sz2", 1e-2, 0.0, 0.0, True,
     0.0, 0.0, 0.05, 0.05008192),
    (dict(bandwidth_mbps=5.0, latency_seconds=0.01, device=PI5), 262_144, 40_000, "sz2", 1e-3,
     0.0, 0.0, True, 0.005666753134457415, 0.0028333765672287074, 0.074, 0.4294304),
]


@pytest.mark.parametrize(
    "fields, original, sent, compressor, bound, measured_tc, measured_td, delivered, "
    "t_c, t_d, wire, wire_original",
    LINK_MODEL_CASES,
)
def test_link_model_is_pinned(
    fields, original, sent, compressor, bound, measured_tc, measured_td, delivered,
    t_c, t_d, wire, wire_original,
):
    """Exact (``==``) constants: the federated runtime bills these methods and
    Figures 7/8/9 estimate with them, so a drift here moves both."""
    spec = LinkSpec(**fields)
    assert spec.codec_seconds(
        compressor, bound, original, (measured_tc, measured_td), delivered
    ) == (t_c, t_d)
    assert spec.transmission_seconds(sent) == wire
    if not delivered:
        return
    estimate = spec.estimate_upload(
        original, sent, compressor=compressor, error_bound=bound,
        measured_compress_seconds=measured_tc, measured_decompress_seconds=measured_td,
    )
    assert (estimate.compress_seconds, estimate.decompress_seconds) == (t_c, t_d)
    assert (estimate.compressor, estimate.error_bound) == (compressor, bound)
    assert estimate.transfer_seconds == wire
    assert estimate.total_seconds == t_c + t_d + wire
    assert estimate.uncompressed_transfer_seconds == wire_original
    assert estimate.worthwhile == (0.0 < t_c + t_d + wire < wire_original)


def test_link_model_paper_example_end_to_end():
    estimate = LinkSpec(bandwidth_mbps=10.0, device=PI5).estimate_upload(
        230_000_000, 18_200_000, compressor="sz2", error_bound=1e-2
    )
    assert estimate.total_seconds == 19.436325088339224
    assert estimate.worthwhile
    assert estimate.speedup == 9.466810169294316
    assert estimate.seconds_saved == 164.56367491166077
    baseline = LinkSpec(bandwidth_mbps=10.0, device=PI5).estimate_upload(230_000_000, None)
    assert (baseline.compressed_nbytes, baseline.compress_seconds) == (230_000_000, 0.0)
    assert baseline.total_seconds == 184.0 and not baseline.worthwhile


def test_channel_accumulates_transfers():
    channel = SimulatedChannel(LinkSpec(bandwidth_mbps=8.0))
    channel.send(1_000_000, description="a")
    channel.send(b"\x00" * 500_000, description="b")
    assert channel.total_bytes == 1_500_000
    assert channel.total_seconds == pytest.approx(1.5)
    assert len(channel.transfers) == 2
    channel.reset()
    assert channel.total_bytes == 0


def test_decision_compression_wins_on_slow_links():
    # AlexNet-like: 230 MB down to 18 MB with ~5 s of codec time.
    decision = should_compress(230e6, 18.2e6, 3.2, 1.6, bandwidth_mbps=10.0)
    assert decision.worthwhile
    assert decision.speedup > 5.0
    assert decision.seconds_saved > 100.0


def test_decision_compression_loses_on_fast_links():
    decision = should_compress(230e6, 18.2e6, 3.2, 1.6, bandwidth_mbps=10_000.0)
    assert not decision.worthwhile
    assert decision.seconds_saved < 0


def test_decision_validation():
    with pytest.raises(ValueError):
        should_compress(-1, 10, 0.1, 0.1, 10)
    with pytest.raises(ValueError):
        should_compress(100, 10, -0.1, 0.1, 10)


def test_crossover_bandwidth_matches_paper_order_of_magnitude():
    """With Table I's Pi-5 runtimes the crossover should land in the hundreds
    of Mbps (the paper reports ~500 Mbps for AlexNet + SZ2)."""
    original = 230e6
    compressed = original / 11.26  # Table I AlexNet SZ2 ratio at 1e-2
    compress_seconds = 3.22  # Table I runtime
    decompress_seconds = compress_seconds / 2
    crossover = crossover_bandwidth_mbps(original, compressed, compress_seconds, decompress_seconds)
    assert 200 < crossover < 1000


def test_crossover_edge_cases():
    assert crossover_bandwidth_mbps(100, 150, 1.0, 1.0) == 0.0
    assert crossover_bandwidth_mbps(100, 50, 0.0, 0.0) == float("inf")


def test_decision_consistent_with_crossover():
    original, compressed, tc, td = 50e6, 10e6, 0.5, 0.25
    crossover = crossover_bandwidth_mbps(original, compressed, tc, td)
    below = should_compress(original, compressed, tc, td, crossover * 0.5)
    above = should_compress(original, compressed, tc, td, crossover * 2.0)
    assert below.worthwhile
    assert not above.worthwhile


@settings(max_examples=50, deadline=None)
@given(
    original=st.integers(min_value=1_000, max_value=10**9),
    ratio=st.floats(min_value=1.1, max_value=100.0),
    codec_seconds=st.floats(min_value=1e-4, max_value=100.0),
    bandwidth=st.floats(min_value=0.1, max_value=10_000.0),
)
def test_decision_agrees_with_crossover_property(original, ratio, codec_seconds, bandwidth):
    compressed = int(original / ratio)
    crossover = crossover_bandwidth_mbps(original, compressed, codec_seconds, codec_seconds)
    decision = should_compress(original, compressed, codec_seconds, codec_seconds, bandwidth)
    if bandwidth < crossover * 0.999:
        assert decision.worthwhile
    elif bandwidth > crossover * 1.001:
        assert not decision.worthwhile
