"""Behavioural tests shared by all four EBLC analogues plus codec-specific ones."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import (
    ErrorBoundMode,
    SZ2Compressor,
    SZ3Compressor,
    SZxCompressor,
    ZFPCompressor,
    evaluate_lossy,
    get_lossy_compressor,
)
from repro.compression.base import pack_sections, unpack_sections
from repro.compression.errors import (
    CorruptPayloadError,
    InvalidErrorBoundError,
    UnsupportedDataError,
)
from repro.compression.quantizer import verify_error_bound
from repro.compression.zfp import precision_for_relative_bound

#: Compressors whose reconstruction must strictly satisfy the error bound.
BOUNDED = [SZ2Compressor, SZ3Compressor, SZxCompressor]
ALL = BOUNDED + [ZFPCompressor]


@pytest.fixture(params=ALL, ids=lambda cls: cls.name)
def compressor(request):
    return request.param()


@pytest.fixture(params=BOUNDED, ids=lambda cls: cls.name)
def bounded_compressor(request):
    return request.param()


# ----------------------------------------------------------------------
# Shared contract
# ----------------------------------------------------------------------
def test_roundtrip_preserves_shape_and_dtype(compressor, spiky_weights):
    data = spiky_weights.reshape(100, 200)
    payload = compressor.compress(data, 1e-2)
    restored = compressor.decompress(payload)
    assert restored.shape == data.shape
    assert restored.dtype == data.dtype


def test_relative_error_bound_respected(bounded_compressor, spiky_weights):
    value_range = float(spiky_weights.max() - spiky_weights.min())
    for bound in (1e-1, 1e-2, 1e-3):
        payload = bounded_compressor.compress(spiky_weights, bound, ErrorBoundMode.REL)
        restored = bounded_compressor.decompress(payload)
        assert verify_error_bound(spiky_weights, restored, bound * value_range), (
            f"{bounded_compressor.name} violated REL bound {bound}"
        )


def test_absolute_error_bound_respected(bounded_compressor, spiky_weights):
    payload = bounded_compressor.compress(spiky_weights, 5e-3, ErrorBoundMode.ABS)
    restored = bounded_compressor.decompress(payload)
    assert verify_error_bound(spiky_weights, restored, 5e-3)


def test_smaller_bound_means_lower_ratio(compressor, spiky_weights):
    loose = len(compressor.compress(spiky_weights, 1e-1))
    tight = len(compressor.compress(spiky_weights, 1e-4))
    assert tight > loose


def test_compression_actually_reduces_size(compressor, spiky_weights):
    payload = compressor.compress(spiky_weights, 1e-2)
    assert len(payload) < spiky_weights.nbytes


def test_constant_data_roundtrip(compressor):
    data = np.full(4096, 0.125, dtype=np.float32)
    restored = compressor.decompress(compressor.compress(data, 1e-3))
    np.testing.assert_allclose(restored, data, atol=1e-6)


def test_empty_array_roundtrip(compressor):
    data = np.array([], dtype=np.float32)
    restored = compressor.decompress(compressor.compress(data, 1e-2))
    assert restored.size == 0


def test_tiny_array_roundtrip(bounded_compressor):
    data = np.array([0.5, -0.25, 0.75], dtype=np.float32)
    restored = bounded_compressor.decompress(bounded_compressor.compress(data, 1e-3, ErrorBoundMode.ABS))
    assert verify_error_bound(data, restored, 1e-3)


def test_float64_input_supported(bounded_compressor, rng):
    data = rng.normal(0, 1, 3000)
    restored = bounded_compressor.decompress(bounded_compressor.compress(data, 1e-3, ErrorBoundMode.ABS))
    assert restored.dtype == np.float64
    assert verify_error_bound(data, restored, 1e-3)


def test_non_float_input_rejected(compressor):
    with pytest.raises(UnsupportedDataError):
        compressor.compress(np.arange(10, dtype=np.int32), 1e-2)


@pytest.mark.parametrize(
    "bad_value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"]
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_non_finite_input_rejected_uniformly(compressor, bad_value, dtype):
    """All four codecs share one non-finite policy (validate_lossy_input):
    NaN/+Inf/-Inf raise UnsupportedDataError, naming the offending codec."""
    data = np.array([0.0, bad_value, 1.0], dtype=dtype)
    with pytest.raises(UnsupportedDataError, match=compressor.name):
        compressor.compress(data, 1e-2)


@pytest.mark.parametrize("bound", [0.0, -1e-3, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("mode", list(ErrorBoundMode), ids=lambda mode: mode.name)
def test_invalid_error_bound_rejected(compressor, spiky_weights, mode, bound):
    """One check and one message for every codec in both modes: ZFP in ABS
    mode used to code 0 and negative bounds at its precision floor, and to
    call an ABS ``nan`` a relative bound."""
    with pytest.raises(InvalidErrorBoundError, match="error bound must be a positive finite"):
        compressor.compress(spiky_weights, bound, mode)


def test_decoder_uses_payload_metadata_not_instance_config(spiky_weights):
    """A decoder configured differently from the encoder still decodes exactly
    (block size / cubic flag travel in the payload metadata)."""
    payload = SZ2Compressor(block_size=64).compress(spiky_weights, 1e-2)
    expected = SZ2Compressor(block_size=64).decompress(payload)
    np.testing.assert_array_equal(SZ2Compressor(block_size=512).decompress(payload), expected)

    payload = SZ3Compressor(use_cubic=True).compress(spiky_weights, 1e-2)
    expected = SZ3Compressor(use_cubic=True).decompress(payload)
    np.testing.assert_array_equal(SZ3Compressor(use_cubic=False).decompress(payload), expected)


def test_corrupt_payload_rejected(compressor, spiky_weights):
    payload = compressor.compress(spiky_weights, 1e-2)
    with pytest.raises(CorruptPayloadError):
        compressor.decompress(payload[: len(payload) // 3])


def test_missing_section_rejected(compressor, spiky_weights):
    """Every section a decoder reads is one a payload can arrive without."""
    for data in (spiky_weights, spiky_weights[:0]):  # predictor sections, raw fallback
        sections = unpack_sections(compressor.compress(data, 1e-2))
        assert len(sections) > 1
        for name in sections:
            remaining = {key: value for key, value in sections.items() if key != name}
            with pytest.raises(CorruptPayloadError):
                compressor.decompress(pack_sections(remaining))


def test_registry_returns_same_behaviour(spiky_weights):
    for name in ("sz2", "sz3", "szx", "zfp"):
        instance = get_lossy_compressor(name)
        assert instance.name == name
        payload = instance.compress(spiky_weights, 1e-2)
        assert instance.decompress(payload).shape == spiky_weights.shape


# ----------------------------------------------------------------------
# Paper-shape expectations (Section V-D)
# ----------------------------------------------------------------------
def test_sz2_ratio_exceeds_zfp_on_spiky_weights(spiky_weights):
    """ZFP is optimised for smooth multi-dimensional fields; on spiky 1-D
    model parameters SZ2 should achieve a clearly higher ratio (Table I)."""
    sz2 = evaluate_lossy(SZ2Compressor(), spiky_weights, 1e-2)
    zfp = evaluate_lossy(ZFPCompressor(), spiky_weights, 1e-2)
    assert sz2.ratio > zfp.ratio


def test_sz2_and_sz3_ratios_are_close(spiky_weights):
    sz2 = evaluate_lossy(SZ2Compressor(), spiky_weights, 1e-2)
    sz3 = evaluate_lossy(SZ3Compressor(), spiky_weights, 1e-2)
    assert sz2.ratio == pytest.approx(sz3.ratio, rel=0.5)


def test_smooth_data_compresses_better_than_spiky(spiky_weights, smooth_field):
    """Scientific-simulation-like data is far more compressible (Figure 2)."""
    spiky = evaluate_lossy(SZ2Compressor(), spiky_weights, 1e-3)
    smooth = evaluate_lossy(SZ2Compressor(), smooth_field, 1e-3)
    assert smooth.ratio > spiky.ratio


def test_szx_is_faster_than_sz2_on_large_input(rng):
    """SZx skips prediction-mode selection and entropy coding entirely, so it
    must beat the SZ2 analogue on runtime (the paper's Table I gap is much
    larger because the real SZx is hand-optimised C)."""
    data = rng.normal(0, 0.05, 400_000).astype(np.float32)
    szx = min(
        evaluate_lossy(SZxCompressor(), data, 1e-2).compress_seconds for _ in range(3)
    )
    sz2 = min(
        evaluate_lossy(SZ2Compressor(), data, 1e-2).compress_seconds for _ in range(3)
    )
    assert szx < sz2


# ----------------------------------------------------------------------
# Codec-specific behaviour
# ----------------------------------------------------------------------
@pytest.mark.parametrize("codec_cls", [SZ2Compressor, SZ3Compressor], ids=["sz2", "sz3"])
def test_entropy_backend_is_not_a_constructor_argument(codec_cls):
    """The index stream has one coder, so there is nothing to select."""
    with pytest.raises(TypeError, match="entropy_backend"):
        codec_cls(entropy_backend="deflate")


def test_sz2_uses_regression_for_linear_ramps():
    ramp = np.linspace(0.0, 100.0, 8192, dtype=np.float64)
    sz2 = SZ2Compressor()
    ramp_payload = sz2.compress(ramp, 1e-4, ErrorBoundMode.ABS)
    noise_payload = sz2.compress(
        np.random.default_rng(0).normal(0, 30, 8192), 1e-4, ErrorBoundMode.ABS
    )
    # A perfectly linear signal should compress dramatically better because the
    # regression predictor captures it with near-zero residuals.
    assert len(ramp_payload) < len(noise_payload) / 4


def test_sz2_invalid_block_size_rejected():
    with pytest.raises(ValueError):
        SZ2Compressor(block_size=2)


def test_sz3_linear_only_mode_roundtrip(spiky_weights):
    compressor = SZ3Compressor(use_cubic=False)
    restored = compressor.decompress(compressor.compress(spiky_weights, 1e-2))
    value_range = float(spiky_weights.max() - spiky_weights.min())
    assert verify_error_bound(spiky_weights, restored, 1e-2 * value_range)


def test_sz3_beats_sz2_on_smooth_data(smooth_field):
    """The interpolation predictor should shine on smooth fields."""
    sz2 = evaluate_lossy(SZ2Compressor(), smooth_field, 1e-3)
    sz3 = evaluate_lossy(SZ3Compressor(), smooth_field, 1e-3)
    assert sz3.ratio > 0.8 * sz2.ratio


def test_szx_constant_blocks_store_only_means():
    # Data constant within each block should compress extremely well.
    data = np.repeat(np.linspace(-1, 1, 64), 128).astype(np.float32)
    evaluation = evaluate_lossy(SZxCompressor(block_size=128), data, 1e-2)
    assert evaluation.ratio > 20


def test_szx_invalid_block_size_rejected():
    with pytest.raises(ValueError):
        SZxCompressor(block_size=1)


def test_zfp_precision_mapping_monotone():
    assert precision_for_relative_bound(1e-1) < precision_for_relative_bound(1e-3)
    assert precision_for_relative_bound(1e-2) == 8
    assert 2 <= precision_for_relative_bound(0.9) <= precision_for_relative_bound(1e-9) <= 30


def test_zfp_precision_rejects_bad_bound():
    with pytest.raises(InvalidErrorBoundError):
        precision_for_relative_bound(0.0)


def test_zfp_error_tracks_requested_bound(spiky_weights):
    """Fixed-precision mode has no hard guarantee, but the error should still
    scale with the requested bound (the paper treats it as 'analogous')."""
    loose = evaluate_lossy(ZFPCompressor(), spiky_weights, 1e-1)
    tight = evaluate_lossy(ZFPCompressor(), spiky_weights, 1e-4)
    assert tight.max_abs_error < loose.max_abs_error
    value_range = float(spiky_weights.max() - spiky_weights.min())
    assert tight.max_abs_error < 1e-3 * value_range


# ----------------------------------------------------------------------
# Property-based round-trips
# ----------------------------------------------------------------------
# Examples are derived from the test's source, not drawn afresh each run: a
# fresh draw lands on ROADMAP item 1 step 1's float32 overshoot (pinned below) about
# once in a dozen runs, which made tier-1 a coin flip.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    data=hnp.arrays(
        dtype=np.float32,
        shape=st.integers(min_value=1, max_value=2000),
        elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=32),
    ),
    bound=st.sampled_from([1e-1, 1e-2, 1e-3]),
    compressor_cls=st.sampled_from(BOUNDED),
)
def test_bounded_compressors_error_bound_property(data, bound, compressor_cls):
    compressor = compressor_cls()
    payload = compressor.compress(data, bound, ErrorBoundMode.REL)
    restored = compressor.decompress(payload)
    value_range = float(data.max() - data.min())
    assert restored.shape == data.shape
    assert verify_error_bound(data, restored, bound * max(value_range, np.finfo(np.float32).tiny))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1 step 1: the bound holds for the float64 reconstruction and is "
    "overshot by the rounding to float32 output; the fix must flip these",
)
@pytest.mark.parametrize("compressor_cls", [SZ2Compressor, SZ3Compressor], ids=["sz2", "sz3"])
@pytest.mark.parametrize(
    "values",
    [
        [0.0, 1.0, 8.0],  # reconstructs 0.992: error 0.008000016 against 0.008
        [-100.0, 100.0, 17.0],  # reconstructs 16.8: error 0.20000076 against 0.2 (PR 15)
    ],
    ids=["0-1-8", "-100-100-17"],
)
def test_float32_output_rounding_overshoots_the_bound(values, compressor_cls):
    data = np.array(values, dtype=np.float32)
    compressor = compressor_cls()
    restored = compressor.decompress(compressor.compress(data, 1e-3, ErrorBoundMode.REL))
    assert verify_error_bound(data, restored, 1e-3 * float(data.max() - data.min()))
