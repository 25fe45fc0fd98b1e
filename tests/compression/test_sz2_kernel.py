"""Guards on the SZ2 encode/decode kernels that seconds cannot give.

The kernels were rewritten for memory traffic (one float64 scratch array,
int32 codes, a cost table, majority-mode decode).  Equality of every
reconstruction with the frozen reference codecs is pinned by
``test_staged_equivalence.py`` / ``test_reference_equivalence.py``; this file
pins what those cannot see: the allocation peak, the equality of the cost
table with the expression it replaces, and the paths that only extreme or
hostile inputs reach.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.compression import ErrorBoundMode, SZ2Compressor
from repro.compression.base import pack_sections, unpack_sections
from repro.compression.bitstream import unpack_bit_flags
from repro.compression.errors import CorruptPayloadError
from repro.compression.reference_codecs import ReferenceSZ2Compressor
from repro.compression.sz2 import _COST_TABLE, _estimate_block_bits


def test_compress_allocation_peak_is_bounded(rng):
    """No per-step temporaries: the peak is 10.1x the input (18.0x before the
    scratch buffer), and unlike seconds it does not jitter on a shared host."""
    data = rng.normal(0.0, 0.02, 1_000_000).astype(np.float32)
    compressor = SZ2Compressor()
    tracemalloc.start()
    try:
        compressor.compress(data, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the input"


def _reference_block_bits(codes: np.ndarray) -> np.ndarray:
    magnitudes = np.abs(codes).astype(np.float64)
    return np.sum(np.log2(2.0 * magnitudes + 1.0) + 1.0, axis=1)


@pytest.mark.parametrize("limit", [5, _COST_TABLE.size, _COST_TABLE.size + 1, 2**40])
def test_block_cost_equals_the_log2_expression(limit, rng):
    """In the table, at its edge, one past it and far outside (log2 fallback):
    mode selection compares these sums, so they must agree to the bit."""
    codes = rng.integers(-limit + 1, limit, size=(64, 256))
    codes[0, 0] = limit - 1
    codes = codes.astype(np.int32 if limit < 2**30 else np.int64)
    costs = _estimate_block_bits(
        codes, np.empty(codes.shape, np.intp), np.empty(codes.shape, np.float64)
    )
    np.testing.assert_array_equal(costs, _reference_block_bits(codes))


@pytest.mark.parametrize(
    "scale,mode,bound",
    [(1e12, ErrorBoundMode.ABS, 1e-9), (1.0, ErrorBoundMode.REL, 1e-12)],
    ids=["abs-tiny-bound", "rel-1e-12"],
)
def test_codes_beyond_int32_match_the_reference(scale, mode, bound, rng):
    data = rng.normal(0.0, 1.0, 3000) * scale
    with np.errstate(invalid="ignore"):
        expected = ReferenceSZ2Compressor().decompress(
            ReferenceSZ2Compressor().compress(data, bound, mode)
        )
        actual = SZ2Compressor().decompress(SZ2Compressor().compress(data, bound, mode))
    np.testing.assert_array_equal(actual, expected)


def _mixed_tensor(rng, lorenzo_share: float) -> np.ndarray:
    """Blocks of smooth ramp (Lorenzo wins) and of noise (regression wins)."""
    blocks = 200
    smooth = np.cumsum(np.full((blocks, 256), 1e-3), axis=1) + rng.normal(size=(blocks, 1))
    noise = rng.normal(0.0, 0.3, (blocks, 256))
    pick = rng.random(blocks) < lorenzo_share
    return np.where(pick[:, None], smooth, noise).astype(np.float32).ravel()


@pytest.mark.parametrize("lorenzo_share", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_decode_is_exact_whichever_mode_is_the_majority(lorenzo_share, rng):
    data = _mixed_tensor(rng, lorenzo_share)
    payload = SZ2Compressor().compress(data, 1e-3)
    modes = unpack_bit_flags(unpack_sections(payload)["modes"], data.size // 256)
    if 0.0 < lorenzo_share < 1.0:
        assert 0 < np.count_nonzero(modes) < modes.size  # both branches have rows to redo
    expected = ReferenceSZ2Compressor().decompress(ReferenceSZ2Compressor().compress(data, 1e-3))
    np.testing.assert_array_equal(SZ2Compressor().decompress(payload), expected)


@pytest.mark.parametrize("section", ["coef", "codes", "modes"])
def test_sections_that_disagree_on_the_block_count_fail_closed(section, rng):
    compressor = SZ2Compressor()
    sections = unpack_sections(compressor.compress(_mixed_tensor(rng, 0.5), 1e-3))
    other = unpack_sections(compressor.compress(_mixed_tensor(rng, 0.5)[: 256 * 7], 1e-3))
    sections[section] = other[section]
    with pytest.raises(CorruptPayloadError):
        compressor.decompress(pack_sections(sections))
