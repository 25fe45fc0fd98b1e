"""Uniform error-bounded quantization.

All prediction-based SZ-style compressors share the same core primitive: given
a prediction for each value, quantize the prediction residual onto a uniform
grid with bin width ``2 * error_bound`` so that the reconstruction error never
exceeds the bound.  This module provides that primitive (quantize
value-minus-prediction) and its inverse.
"""

from __future__ import annotations

import numpy as np

from repro.compression.errors import InvalidErrorBoundError


#: Codes travel as int32 while every magnitude stays under this, so that the
#: difference of any two codes (a Lorenzo residual) cannot overflow either.
_INT32_CODE_LIMIT = 2**30


def quantize_residuals(
    data: np.ndarray,
    predictions: np.ndarray,
    error_bound: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Quantize prediction residuals; reconstruction is ``pred + idx * 2ε``.

    ``out`` is a float64 scratch array of the broadcast shape that the
    residuals are computed in, step by step, instead of in fresh temporaries;
    it may be ``predictions`` itself when those are no longer needed.  The
    codes are int32 when their measured range allows, int64 otherwise.
    ``error_bound`` is one bound, or a column of one bound per row of ``data``.
    """
    if not np.all((error_bound > 0) & (error_bound < np.inf)):  # NaN fails both
        raise InvalidErrorBoundError(f"error bound must be positive and finite, got {error_bound}")
    scaled = np.asarray(np.subtract(data, predictions, out=out, dtype=np.float64))
    scaled /= 2.0 * error_bound
    np.rint(scaled, out=scaled)
    if scaled.size and not (
        -_INT32_CODE_LIMIT < scaled.min() and scaled.max() < _INT32_CODE_LIMIT
    ):
        return scaled.astype(np.int64)
    return scaled.astype(np.int32)


def dequantize_residuals(
    indices: np.ndarray,
    predictions: np.ndarray,
    error_bound: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse of :func:`quantize_residuals`; ``out`` receives the float64 result."""
    values = np.multiply(indices, 2.0 * error_bound, out=out, dtype=np.float64)
    return np.add(values, predictions, out=out)


def verify_error_bound(original: np.ndarray, reconstructed: np.ndarray, error_bound: float, slack: float = 1e-9) -> bool:
    """Return ``True`` when ``|original - reconstructed|`` never exceeds the bound.

    A tiny ``slack`` absorbs float32 storage rounding of the reconstruction.
    """
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.size == 0:
        return True
    max_error = float(np.max(np.abs(original - reconstructed)))
    tolerance = float(error_bound) * (1.0 + 1e-6) + slack + np.spacing(np.abs(original).max() or 1.0) * 4
    return max_error <= tolerance
