"""Throughput floor for the vectorised flag packer.

``pack_bit_flags`` is timed against the scalar implementation it replaced
(kept in ``tests/_reference/bitstream.py``) with a warmup and min-of-3 on
both sides, which makes the ratio robust to scheduler noise.  The asserted
floor is a fraction of the typical speedup (>30x), so a failure means a real
de-vectorisation, not jitter.
"""

from __future__ import annotations

import time

import numpy as np
from _reference.bitstream import reference_pack_bit_flags

from repro.compression.bitstream import pack_bit_flags


def _best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _speedup(fast, slow, repeats=3):
    fast()  # warmup both paths before timing
    slow()
    return _best_of(slow, repeats) / _best_of(fast, repeats)


def test_pack_bit_flags_at_least_3x_faster_than_reference():
    rng = np.random.default_rng(1)
    flags = rng.random(1_000_000) < 0.3
    flag_list = flags.tolist()
    assert pack_bit_flags(flags) == reference_pack_bit_flags(flag_list)
    speedup = _speedup(
        lambda: pack_bit_flags(flags), lambda: reference_pack_bit_flags(flag_list)
    )
    assert speedup >= 3.0, f"vectorised pack_bit_flags only {speedup:.1f}x faster"
