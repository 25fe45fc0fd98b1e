"""Acceptance test for the codec pool's headline claim.

The pipeline runs codec groups on lanes by itself once two of them hold the
codec's ``pool_min_values`` (2^16 values for SZ2).  On a state dict it engages
on — four 2^21-value
float32 tensors plus small ones, the shape of a paper-scale model's deep
layers — compressing with the pool must give the serial path's payload byte
for byte, and on a host with >= 2 cores be >= 1.3x faster wall-clock at two
workers (best of 3 each; the GIL-releasing numpy/zlib kernels are what
overlap).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.config import FedSZConfig
from repro.core.pipeline import compress_state_dict

WORKERS = 2
SERIAL = FedSZConfig(max_codec_workers=1)
POOLED = FedSZConfig(max_codec_workers=WORKERS)


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def deep_state():
    rng = np.random.default_rng(0)
    state = {
        f"layer{index}.weight": (rng.standard_normal(1 << 21) * 0.02).astype(np.float32)
        for index in range(4)
    }
    for index in range(3):
        state[f"head{index}.weight"] = rng.standard_normal((64, 64)).astype(np.float32)
    state["head.bias"] = np.zeros(64, dtype=np.float32)
    return state


def test_pooled_compression_is_byte_identical(deep_state):
    serial, serial_report = compress_state_dict(deep_state, SERIAL)
    pooled, report = compress_state_dict(deep_state, POOLED)
    assert pooled == serial
    assert (serial_report.codec_workers, report.codec_workers) == (1, WORKERS)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"the codec pool's speedup needs >= {WORKERS} cores (host has {os.cpu_count()})",
)
def test_pooled_compression_speedup_at_two_workers(deep_state):
    # Warm both paths (allocator, zlib state) before timing.
    compress_state_dict(deep_state, SERIAL)
    compress_state_dict(deep_state, POOLED)
    serial_seconds = _best_of(lambda: compress_state_dict(deep_state, SERIAL))
    pooled_seconds = _best_of(lambda: compress_state_dict(deep_state, POOLED))
    speedup = serial_seconds / pooled_seconds
    assert speedup >= 1.3, (
        f"codec pool speedup {speedup:.2f}x "
        f"(serial {serial_seconds:.3f}s, {WORKERS} workers {pooled_seconds:.3f}s)"
    )
