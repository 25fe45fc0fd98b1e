"""Equation 1: when is compression worth it?

The paper's decision criterion (Section II-B) states that compressing is a
runtime win whenever the time spent compressing, decompressing and sending
the *compressed* payload is smaller than the time to send the original
payload:

    0 < t_C + t_D + S'/B_N < S/B_N

The inequality itself is :class:`repro.network.bandwidth.CompressionDecision`
(what :meth:`LinkSpec.estimate_upload` returns); this module evaluates it for
bare numbers and solves it for the crossover bandwidth above which
compression stops paying off (the ≈500 Mbps threshold of Figure 8).
"""

from __future__ import annotations

from repro.network.bandwidth import CompressionDecision, LinkSpec


def should_compress(
    original_nbytes: int,
    compressed_nbytes: int,
    compress_seconds: float,
    decompress_seconds: float,
    bandwidth_mbps: float,
) -> CompressionDecision:
    """Evaluate Eqn. 1 for a single payload/bandwidth configuration."""
    if original_nbytes < 0 or compressed_nbytes < 0:
        raise ValueError("byte counts must be non-negative")
    if compress_seconds < 0 or decompress_seconds < 0:
        raise ValueError("codec runtimes must be non-negative")
    return LinkSpec(bandwidth_mbps=float(bandwidth_mbps)).estimate_upload(
        original_nbytes,
        compressed_nbytes,
        measured_compress_seconds=float(compress_seconds),
        measured_decompress_seconds=float(decompress_seconds),
    )


def crossover_bandwidth_mbps(
    original_nbytes: int,
    compressed_nbytes: int,
    compress_seconds: float,
    decompress_seconds: float,
) -> float:
    """Bandwidth at which compression stops being worthwhile.

    Solving ``t_C + t_D + S'/B = S/B`` for ``B`` gives
    ``B* = (S - S') / (t_C + t_D)``.  Below ``B*`` compression wins; above it
    the codec overhead dominates.  Returns ``inf`` when the codec runtime is
    zero and the payload actually shrank (compression always wins), and 0.0
    when compression does not reduce the payload at all.
    """
    saved_bytes = original_nbytes - compressed_nbytes
    if saved_bytes <= 0:
        return 0.0
    codec_seconds = compress_seconds + decompress_seconds
    if codec_seconds <= 0:
        return float("inf")
    bytes_per_second = saved_bytes / codec_seconds
    return bytes_per_second * 8.0 / 1e6
