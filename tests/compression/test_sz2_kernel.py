"""Guards on the SZ2 encode/decode kernels that seconds cannot give.

The kernels are written for memory traffic (slab-sized float64 buffers,
int32 codes, a cost table, majority-mode decode).  Equality of every
reconstruction with the frozen reference codecs, and of every payload byte
across slab boundaries, is pinned by the golden corpus (``tests/golden/``);
this file
pins what those cannot see: the allocation peaks, the equality of the cost
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
from _reference.codecs import ReferenceSZ2Compressor
from repro.compression.sz2 import (
    _COST_TABLE,
    _RUN_ELEMENTS,
    _SLAB_ELEMENTS,
    _estimate_block_bits,
)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PEAK_CASES = pytest.mark.parametrize(
    "size,dtype",
    [(1_000_000, np.float32), (2_359_296, np.float32), (1_000_000, np.float64)],
    ids=["1M-float32", "layer4-float32", "1M-float64"],
)


@PEAK_CASES
def test_compress_allocation_peak_is_bounded(size, dtype, rng):
    """The whole-tensor arrays are the int32 codes and their int8 narrowing;
    everything float64 is a slab.  Measured 1.8x a ``layer4`` float32 input
    (8.1x with whole-tensor kernels), and unlike seconds the peak does not
    jitter on a shared host."""
    data = rng.normal(0.0, 0.02, size).astype(dtype)
    peak = _traced_peak(lambda: SZ2Compressor().compress(data, 1e-2))
    assert peak <= 2.5 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the input"


@PEAK_CASES
def test_decompress_allocation_peak_is_bounded(size, dtype, rng):
    """The inflated codes and the output in the tensor's dtype: measured 1.5x
    a ``layer4`` float32 input (4.5x with a float64 reconstruction)."""
    data = rng.normal(0.0, 0.02, size).astype(dtype)
    payload = SZ2Compressor().compress(data, 1e-2)
    peak = _traced_peak(lambda: SZ2Compressor().decompress(payload))
    assert peak <= 2.5 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the input"


@pytest.mark.parametrize(
    "dtype,encode_ceiling,decode_ceiling",
    [(np.float32, 11.0, 6.0), (np.float64, 5.5, 3.5)],
    ids=["float32", "float64"],
)
def test_a_full_run_walks_within_its_one_slab_ceiling(dtype, encode_ceiling, decode_ceiling, rng):
    """A run of exactly ``_RUN_ELEMENTS`` values walks as one slab: three
    float64/intp slab buffers (6.3 MB), the int32 codes and the candidates'
    code arrays, 10.5 MB for either dtype.  Measured encode 10.0x a float32
    input (4.0x, 4.2 MB, when such a run walked in 2^16-value slabs) and 5.0x
    a float64 one; decode 5.6x and 3.3x."""
    data = rng.normal(0.0, 0.02, _RUN_ELEMENTS).astype(dtype)
    peak = _traced_peak(lambda: SZ2Compressor().compress(data, 1e-2))
    assert peak <= encode_ceiling * data.nbytes, f"compress peak {peak / data.nbytes:.2f}x"
    payload = SZ2Compressor().compress(data, 1e-2)
    peak = _traced_peak(lambda: SZ2Compressor().decompress(payload))
    assert peak <= decode_ceiling * data.nbytes, f"decompress peak {peak / data.nbytes:.2f}x"


def test_compress_never_holds_a_float64_copy_of_the_tensor(rng):
    """Codes (1x) plus a float64 copy (2x) of a float32 tensor would be 3x."""
    data = rng.normal(0.0, 0.02, 4_000_000).astype(np.float32)
    peak = _traced_peak(lambda: SZ2Compressor().compress(data, 1e-2))
    slab_buffers = _SLAB_ELEMENTS * (3 * 8 + 3 * 4)  # three float64/intp, three int32 codes
    assert peak < 2 * data.nbytes + slab_buffers, f"peak {peak / data.nbytes:.2f}x the input"


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
