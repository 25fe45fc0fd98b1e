"""The staged codecs must decode bit-identically to the pre-refactor codecs.

The stage refactor (``repro.compression.stages``) changed the payload framing
but must not change a single reconstructed bit: for every codec × dtype ×
bound mode, ``staged.decompress(staged.compress(x))`` is compared element-exact
against the frozen monolithic implementations in
``tests/_reference/codecs.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    ErrorBoundMode,
    SZ2Compressor,
    SZ3Compressor,
    SZxCompressor,
    ZFPCompressor,
)
from _reference.codecs import (
    ReferenceSZ2Compressor,
    ReferenceSZ3Compressor,
    ReferenceSZxCompressor,
    ReferenceZFPCompressor,
)

PAIRS = [
    (SZ2Compressor, ReferenceSZ2Compressor),
    (SZ3Compressor, ReferenceSZ3Compressor),
    (SZxCompressor, ReferenceSZxCompressor),
    (ZFPCompressor, ReferenceZFPCompressor),
]
PAIR_IDS = [staged.name for staged, _ in PAIRS]
DTYPES = [np.float32, np.float64]


def _weight_like(dtype, size=5001, seed=7):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.02, size).astype(dtype)
    outliers = rng.choice(size, 32, replace=False)
    values[outliers] = rng.uniform(-0.9, 0.9, 32).astype(dtype)
    return values


def _assert_identical(staged, reference, data, bound, mode):
    expected = reference.decompress(reference.compress(data, bound, mode))
    actual = staged.decompress(staged.compress(data, bound, mode))
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("staged_cls,reference_cls", PAIRS, ids=PAIR_IDS)
@pytest.mark.parametrize(
    "mode,bound",
    [
        (ErrorBoundMode.REL, 1e-1),
        (ErrorBoundMode.REL, 1e-2),
        (ErrorBoundMode.REL, 1e-3),
        (ErrorBoundMode.ABS, 5e-3),
    ],
    ids=["rel-1e1", "rel-1e2", "rel-1e3", "abs-5e3"],
)
def test_staged_decodes_bit_identically(staged_cls, reference_cls, dtype, mode, bound):
    _assert_identical(staged_cls(), reference_cls(), _weight_like(dtype), bound, mode)


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("staged_cls,reference_cls", PAIRS, ids=PAIR_IDS)
def test_staged_edge_inputs_bit_identical(staged_cls, reference_cls, dtype):
    """Raw fallbacks and degenerate shapes behave exactly as before."""
    cases = [
        np.array([], dtype=dtype),                      # empty → raw section
        np.array(0.5, dtype=dtype),                     # 0-d scalar
        np.full(4096, 0.125, dtype=dtype),              # constant (zero REL range)
        np.array([0.5, -0.25, 0.75], dtype=dtype),      # shorter than one block
        _weight_like(dtype, size=257),                  # one partial block
    ]
    for data in cases:
        _assert_identical(staged_cls(), reference_cls(), data, 1e-2, ErrorBoundMode.REL)


@pytest.mark.parametrize("staged_cls,reference_cls", PAIRS, ids=PAIR_IDS)
def test_staged_preserves_multidimensional_shapes(staged_cls, reference_cls):
    data = _weight_like(np.float32, size=6000).reshape(20, 10, 30)
    _assert_identical(staged_cls(), reference_cls(), data, 1e-2, ErrorBoundMode.REL)


def test_non_default_options_stay_bit_identical():
    """Codec tuning knobs flow through the stages unchanged."""
    data = _weight_like(np.float32)
    option_pairs = [
        (SZ2Compressor(block_size=64), ReferenceSZ2Compressor(block_size=64)),
        (SZ3Compressor(use_cubic=False), ReferenceSZ3Compressor(use_cubic=False)),
        (SZxCompressor(block_size=64), ReferenceSZxCompressor(block_size=64)),
        (ZFPCompressor(compression_level=1), ReferenceZFPCompressor(compression_level=1)),
    ]
    for staged, reference in option_pairs:
        _assert_identical(staged, reference, data, 1e-2, ErrorBoundMode.REL)


def test_decoder_uses_payload_metadata_not_instance_config():
    """A decoder configured differently from the encoder still decodes exactly
    (block size / cubic flag travel in the payload metadata)."""
    data = _weight_like(np.float32)
    payload = SZ2Compressor(block_size=64).compress(data, 1e-2)
    expected = SZ2Compressor(block_size=64).decompress(payload)
    np.testing.assert_array_equal(SZ2Compressor(block_size=512).decompress(payload), expected)

    payload = SZ3Compressor(use_cubic=True).compress(data, 1e-2)
    expected = SZ3Compressor(use_cubic=True).decompress(payload)
    np.testing.assert_array_equal(SZ3Compressor(use_cubic=False).decompress(payload), expected)
