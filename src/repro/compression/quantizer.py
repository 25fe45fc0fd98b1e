"""Uniform error-bounded quantization.

All prediction-based SZ-style compressors share the same core primitive: given
a prediction for each value, quantize the prediction residual onto a uniform
grid with bin width ``2 * error_bound`` so that the reconstruction error never
exceeds the bound.  This module provides that primitive in both "absolute"
form (quantize values directly against an offset) and "residual" form
(quantize value-minus-prediction), plus helpers to recentre signed indices for
entropy coding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.errors import InvalidErrorBoundError


@dataclass(frozen=True)
class QuantizationResult:
    """Output of a quantization pass.

    Attributes
    ----------
    indices:
        Signed integer bin indices (int64).
    offset:
        The reference value subtracted before quantization.
    bin_width:
        Reconstruction grid spacing (``2 * error_bound``).
    """

    indices: np.ndarray
    offset: float
    bin_width: float

    def dequantize(self) -> np.ndarray:
        """Reconstruct float64 values from the stored indices."""
        return self.offset + self.indices.astype(np.float64) * self.bin_width


def quantize_absolute(data: np.ndarray, error_bound: float, offset: float | None = None) -> QuantizationResult:
    """Quantize values onto a uniform grid anchored at ``offset``.

    The reconstruction ``offset + index * 2 * error_bound`` is guaranteed to be
    within ``error_bound`` of each input value.
    """
    if error_bound <= 0 or not np.isfinite(error_bound):
        raise InvalidErrorBoundError(f"error bound must be positive and finite, got {error_bound}")
    data = np.asarray(data, dtype=np.float64)
    if offset is None:
        offset = float(data.min()) if data.size else 0.0
    bin_width = 2.0 * float(error_bound)
    indices = np.rint((data - offset) / bin_width).astype(np.int64)
    return QuantizationResult(indices=indices, offset=float(offset), bin_width=bin_width)


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


def zigzag_encode(indices: np.ndarray) -> np.ndarray:
    """Map signed integers onto unsigned ones (0, -1, 1, -2, ... → 0, 1, 2, 3, ...).

    Small-magnitude residuals dominate after good prediction, so zig-zag
    mapping keeps the entropy coder's alphabet compact and non-negative.
    """
    indices = np.asarray(indices, dtype=np.int64)
    return np.where(indices >= 0, indices * 2, -indices * 2 - 1).astype(np.int64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    values = np.asarray(values, dtype=np.int64)
    return np.where(values % 2 == 0, values // 2, -(values + 1) // 2).astype(np.int64)


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
