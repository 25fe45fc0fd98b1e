"""Zero/denormal elapsed times must read as ``inf`` throughput, never raise.

Sub-microsecond codec calls can report an elapsed time of exactly 0.0 (clock
granularity) or a denormal float whose division overflows; ``CompressionStats``
must map these to ``inf`` ("too fast to measure") instead of raising or
leaking a warning into reports.
"""

from __future__ import annotations

import math

import pytest

from repro.compression import CompressionStats, safe_throughput_mbps

DENORMAL = 5e-324  # smallest positive float: division by it overflows


@pytest.mark.parametrize("elapsed", [0.0, -1.0, DENORMAL, float("nan")], ids=["zero", "negative", "denormal", "nan"])
def test_compression_stats_throughput_is_inf_on_degenerate_elapsed(elapsed):
    stats = CompressionStats(
        original_nbytes=10**9,
        compressed_nbytes=1,
        compress_seconds=elapsed,
        decompress_seconds=elapsed,
    )
    assert stats.compress_throughput_mbps == float("inf")
    assert stats.decompress_throughput_mbps == float("inf")


def test_compression_stats_throughput_normal_case():
    stats = CompressionStats(
        original_nbytes=2_000_000, compressed_nbytes=1, compress_seconds=0.5
    )
    assert stats.compress_throughput_mbps == pytest.approx(4.0)
    # Missing decompress timing also reads as inf rather than raising.
    assert stats.decompress_throughput_mbps == float("inf")


def test_safe_throughput_never_raises_and_is_finite_when_measurable():
    assert safe_throughput_mbps(10**9, DENORMAL) == float("inf")
    assert safe_throughput_mbps(0, 0.0) == float("inf")
    assert math.isfinite(safe_throughput_mbps(1_000_000, 1.0))
