"""What SZ2's slab walk must do besides keep its bytes, wherever the slab boundaries fall.

``SZ2Predictor`` encodes and decodes a tensor of up to ``sz2._RUN_ELEMENTS``
values as one slab, and a larger one in slabs of ``sz2._SLAB_ELEMENTS``
values.  The payload bytes and reconstructions at every slab and run boundary,
with both limits at their real sizes and shrunk to four blocks, are pinned in
the golden corpus (``tests/golden/``); here, with the same inputs, the majority
mode flips from slab to slab, one slab alone needs 64-bit codes, the raw
fallback holds over many slabs and ``lossy_options`` reaches the walk.
"""

from __future__ import annotations

import numpy as np
import pytest

from golden.cases import slabwise_mixed, weights, wide_tail
from repro.compression import ErrorBoundMode, SZ2Compressor, sz2
from repro.compression.base import unpack_sections
from repro.compression.bitstream import unpack_bit_flags
from _reference.codecs import ReferenceSZ2Compressor
from repro.compression.stages import EntropyStage
from repro.core import FedSZCompressor

REAL_SLAB = sz2._SLAB_ELEMENTS
SMALL_SLAB_BLOCKS = 4


@pytest.fixture(params=["real-slab", "4-block-slab"])
def slab_blocks(request, monkeypatch):
    """Run the test at the real slab and run sizes and at four blocks for both."""

    def apply(block: int) -> int:
        if request.param == "4-block-slab":
            monkeypatch.setattr(sz2, "_SLAB_ELEMENTS", SMALL_SLAB_BLOCKS * block)
            monkeypatch.setattr(sz2, "_RUN_ELEMENTS", SMALL_SLAB_BLOCKS * block)
        return sz2._SLAB_ELEMENTS // block

    return apply


def test_majority_mode_may_differ_from_slab_to_slab(slab_blocks):
    """Encode overwrites, and decode redoes, the rows of the mode that is
    rarer *in the slab*: both directions occur inside one tensor."""
    block = 256
    per_slab = slab_blocks(block)
    data = slabwise_mixed(per_slab, block)
    payload = SZ2Compressor().compress(data, 1e-3)
    modes = unpack_bit_flags(unpack_sections(payload)["modes"], data.size // block)
    regression_share = modes.reshape(-1, per_slab).mean(axis=1)
    assert (regression_share > 0.5).any() and (regression_share < 0.5).any()
    assert ((0 < regression_share) & (regression_share < 0.5)).any()  # Lorenzo slab, rows redone
    assert ((0.5 < regression_share) & (regression_share < 1)).any()  # and the other way round


def test_only_the_last_slab_needs_64_bit_codes(slab_blocks):
    """Earlier slabs were stored as int32; the output is widened once, late."""
    slab = slab_blocks(256) * 256
    data = wide_tail(slab, sz2._RUN_ELEMENTS)
    payload = SZ2Compressor().compress(data, 2e-4, ErrorBoundMode.ABS)
    codes = EntropyStage.decode(unpack_sections(payload)["codes"])
    assert codes.dtype.itemsize == 8
    assert np.abs(codes[: data.size - 7]).max() < 2**30


@pytest.mark.parametrize("size", [0, 3 * REAL_SLAB + 7], ids=["empty", "constant"])
def test_empty_and_constant_tensors_still_take_the_raw_fallback(size):
    data = np.full(size, 0.25, dtype=np.float32)
    payload = SZ2Compressor().compress(data, 1e-2)
    assert "raw" in unpack_sections(payload) and "codes" not in unpack_sections(payload)
    np.testing.assert_array_equal(SZ2Compressor().decompress(payload), data)


def test_block_size_from_lossy_options_reaches_the_slab_walk(monkeypatch):
    monkeypatch.setattr(sz2, "_SLAB_ELEMENTS", 16)
    monkeypatch.setattr(sz2, "_RUN_ELEMENTS", 16)
    state = {"layer.weight": weights(4099, "float32").reshape(-1, 1)}
    codec = FedSZCompressor(
        error_bound=1e-2, lossy_options={"block_size": 4}, partition_threshold=100
    )
    restored = codec.decompress(codec.compress(state))["layer.weight"]
    reference = ReferenceSZ2Compressor(block_size=4)
    expected = reference.decompress(reference.compress(state["layer.weight"], 1e-2))
    np.testing.assert_array_equal(restored, expected)
