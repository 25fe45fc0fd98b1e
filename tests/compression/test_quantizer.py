"""Tests for the uniform error-bounded quantizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.errors import InvalidErrorBoundError
from repro.compression.quantizer import (
    _INT32_CODE_LIMIT,
    dequantize_residuals,
    quantize_residuals,
    verify_error_bound,
)


def test_residual_quantization_roundtrip(rng):
    data = rng.normal(0, 1, 1000)
    predictions = data + rng.normal(0, 0.1, 1000)
    indices = quantize_residuals(data, predictions, error_bound=0.02)
    reconstructed = dequantize_residuals(indices, predictions, error_bound=0.02)
    np.testing.assert_array_less(np.abs(reconstructed - data), 0.02 + 1e-12)


def test_invalid_error_bound_raises():
    with pytest.raises(InvalidErrorBoundError):
        quantize_residuals(np.zeros(3), np.zeros(3), error_bound=-1.0)


@pytest.mark.parametrize("error_bound", [0.0, np.nan, np.inf, -np.inf])
def test_error_bound_must_be_positive_and_finite(error_bound):
    with pytest.raises(InvalidErrorBoundError):
        quantize_residuals(np.zeros(3), np.zeros(3), error_bound=error_bound)


def test_a_bound_column_bounds_each_row_by_its_own_bound(rng):
    data = rng.normal(0, 1, (3, 200))
    predictions = data + rng.normal(0, 0.2, (3, 200))
    bounds = np.array([[1e-3], [1e-2], [1e-1]])
    indices = quantize_residuals(data, predictions, bounds)
    reconstructed = dequantize_residuals(indices, predictions, bounds)
    for row, bound in enumerate(bounds[:, 0]):
        assert verify_error_bound(data[row], reconstructed[row], bound)
    # The coarser a row's bound, the smaller its codes.
    spans = np.abs(indices).max(axis=1)
    assert spans[0] > spans[1] > spans[2]


def test_a_bound_column_with_one_bad_row_raises():
    bounds = np.array([[1e-2], [0.0]])
    with pytest.raises(InvalidErrorBoundError):
        quantize_residuals(np.zeros((2, 4)), np.zeros((2, 4)), bounds)


def test_codes_are_int32_while_their_range_allows():
    codes = quantize_residuals(np.array([-1.0, 0.0, 1.0]), np.zeros(3), error_bound=0.5)
    assert codes.dtype == np.int32
    assert codes.tolist() == [-1, 0, 1]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_codes_widen_to_int64_at_the_int32_code_limit(sign):
    # One code of magnitude 2**30: the difference of two such codes (a
    # Lorenzo residual) would no longer fit in int32.
    data = np.array([0.0, sign * _INT32_CODE_LIMIT])
    codes = quantize_residuals(data, np.zeros(2), error_bound=0.5)
    assert codes.dtype == np.int64
    assert codes.tolist() == [0, int(sign * _INT32_CODE_LIMIT)]
    np.testing.assert_array_equal(dequantize_residuals(codes, np.zeros(2), 0.5), data)


def test_empty_data_gives_empty_int32_codes():
    codes = quantize_residuals(np.zeros(0), np.zeros(0), error_bound=0.1)
    assert codes.dtype == np.int32 and codes.shape == (0,)
    assert dequantize_residuals(codes, np.zeros(0), 0.1).shape == (0,)


def test_scratch_out_arrays_give_the_same_codes_and_values(rng):
    data = rng.normal(0, 1, 500)
    predictions = data + rng.normal(0, 0.1, 500)
    expected_codes = quantize_residuals(data, predictions, 0.01)
    expected_values = dequantize_residuals(expected_codes, predictions, 0.01)
    scratch = predictions.copy()
    codes = quantize_residuals(data, scratch, 0.01, out=scratch)  # the predictions' own buffer
    np.testing.assert_array_equal(codes, expected_codes)
    values = np.empty(500)
    assert dequantize_residuals(codes, predictions, 0.01, out=values) is values
    np.testing.assert_array_equal(values, expected_values)


@settings(max_examples=50, deadline=None)
@given(
    data=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=1, max_value=300),
        elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    ),
    shift=st.floats(min_value=-100.0, max_value=100.0),
    error_bound=st.floats(min_value=1e-6, max_value=10.0),
)
def test_residual_quantization_error_bound_property(data, shift, error_bound):
    predictions = np.roll(data, 1) + shift  # a poor predictor: large residuals
    indices = quantize_residuals(data, predictions, error_bound)
    assert verify_error_bound(data, dequantize_residuals(indices, predictions, error_bound), error_bound)


def test_verify_error_bound_detects_violation():
    original = np.array([0.0, 1.0, 2.0])
    good = original + 0.009
    bad = original + np.array([0.0, 0.05, 0.0])
    assert verify_error_bound(original, good, 0.01)
    assert not verify_error_bound(original, bad, 0.01)


def test_verify_error_bound_empty_arrays():
    assert verify_error_bound(np.array([]), np.array([]), 1e-3)


def test_verify_error_bound_rejects_a_nan_reconstruction():
    original = np.array([0.0, 1.0])
    assert not verify_error_bound(original, np.array([0.0, np.nan]), 1.0)
