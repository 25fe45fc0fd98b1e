"""Conformance contract for every codec reachable through the registry.

Any compressor registered under :mod:`repro.compression.registry` — built-in
or plugged in later — must honour the same minimal contract the FedSZ
pipeline and the parallel executors rely on: cheap ``clone()``, round-trips
of degenerate inputs (empty, scalar) and of float32/float64 tensors, and
correct ABS vs REL error-bound semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    ErrorBoundMode,
    available_lossless_compressors,
    available_lossy_compressors,
    get_lossless_compressor,
    get_lossy_compressor,
)
from repro.compression.errors import CorruptPayloadError
from repro.compression.quantizer import verify_error_bound


@pytest.fixture(params=available_lossy_compressors())
def lossy_codec(request):
    return get_lossy_compressor(request.param)


@pytest.fixture(params=available_lossless_compressors())
def lossless_codec(request):
    return get_lossless_compressor(request.param)


def _weight_like(dtype):
    rng = np.random.default_rng(11)
    return rng.normal(0.0, 0.05, 4096).astype(dtype)


# ----------------------------------------------------------------------
# Lossy codecs
# ----------------------------------------------------------------------
def test_lossy_clone_is_independent_same_config(lossy_codec):
    duplicate = lossy_codec.clone()
    assert duplicate is not lossy_codec
    assert type(duplicate) is type(lossy_codec)
    assert vars(duplicate) == vars(lossy_codec)
    # The clone is immediately usable and mutations do not flow back.
    data = _weight_like(np.float32)
    np.testing.assert_array_equal(
        duplicate.decompress(duplicate.compress(data, 1e-2)),
        lossy_codec.decompress(lossy_codec.compress(data, 1e-2)),
    )


def test_lossy_roundtrips_empty_array(lossy_codec):
    for dtype in (np.float32, np.float64):
        restored = lossy_codec.decompress(lossy_codec.compress(np.array([], dtype=dtype), 1e-2))
        assert restored.size == 0
        assert restored.dtype == dtype


def test_lossy_roundtrips_scalar(lossy_codec):
    scalar = np.array(0.375, dtype=np.float32)
    restored = lossy_codec.decompress(lossy_codec.compress(scalar, 1e-2))
    assert restored.shape == ()
    assert restored.dtype == scalar.dtype
    assert abs(float(restored) - 0.375) < 0.1


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_lossy_roundtrips_tensor_dtype_and_shape(lossy_codec, dtype):
    data = _weight_like(dtype).reshape(64, 64)
    restored = lossy_codec.decompress(lossy_codec.compress(data, 1e-2))
    assert restored.shape == data.shape
    assert restored.dtype == data.dtype


def test_lossy_honors_abs_vs_rel_bounds(lossy_codec):
    data = _weight_like(np.float64)
    value_range = float(data.max() - data.min())
    rel_bound, abs_bound = 1e-2, 1e-3
    rel_restored = lossy_codec.decompress(
        lossy_codec.compress(data, rel_bound, ErrorBoundMode.REL)
    )
    abs_restored = lossy_codec.decompress(
        lossy_codec.compress(data, abs_bound, ErrorBoundMode.ABS)
    )
    if lossy_codec.strictly_bounded:
        assert verify_error_bound(data, rel_restored, rel_bound * value_range)
        assert verify_error_bound(data, abs_restored, abs_bound)
    else:
        # ZFP-style codecs map the bound onto a retained precision; the two
        # modes must still both reconstruct and track the requested tolerance
        # direction (the ABS bound here is the tighter one).
        rel_error = float(np.max(np.abs(data - rel_restored)))
        abs_error = float(np.max(np.abs(data - abs_restored)))
        assert abs_error <= rel_error
        assert abs_error < value_range


# ----------------------------------------------------------------------
# Lossless codecs
# ----------------------------------------------------------------------
def test_lossless_clone_is_independent_same_config(lossless_codec):
    duplicate = lossless_codec.clone()
    assert duplicate is not lossless_codec
    assert type(duplicate) is type(lossless_codec)
    payload = b"the same bytes through any clone" * 32
    assert duplicate.decompress(duplicate.compress(payload)) == payload


def test_lossless_roundtrips_empty_and_binary(lossless_codec):
    for payload in (b"", bytes(range(256)) * 16):
        assert lossless_codec.decompress(lossless_codec.compress(payload)) == payload


def _flip_middle_byte(payload: bytes) -> bytes:
    flipped = bytearray(payload)
    flipped[len(flipped) // 2] ^= 0xFF
    return bytes(flipped)


@pytest.mark.parametrize(
    "mutate",
    [lambda payload: payload[:-1], _flip_middle_byte, lambda payload: b""],
    ids=["truncated", "bit-flipped", "empty"],
)
def test_lossless_corrupt_stream_fails_closed(lossless_codec, mutate):
    """Whatever the backend raises, a stream it cannot decode is CorruptPayloadError."""
    payload = lossless_codec.compress(bytes(range(256)) * 16)
    with pytest.raises(CorruptPayloadError):
        lossless_codec.decompress(mutate(payload))
