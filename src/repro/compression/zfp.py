"""ZFP-style transform-based lossy compressor (fixed-precision mode), staged.

ZFP (Lindstrom, TVCG 2014) partitions data into small blocks, aligns each
block to a common exponent (block-floating-point), applies a fast orthogonal
decorrelating transform and encodes the transform coefficients bit-plane by
bit-plane.  Its "fixed precision" mode keeps a fixed number of coefficient
bits per block, which is the mode the FedSZ paper selects because ZFP offers
no value-range-relative error bound.

In the stage pipeline this module holds only the transform/coefficient
predictor; it overrides :meth:`PredictorStage.prepare` because ZFP is the one
codec whose "bound resolution" maps the requested bound onto a retained
precision (``precision ≈ log2(1/rel) + 1``) instead of an absolute tolerance:

* blocks of four samples over the flattened tensor;
* block-floating-point normalisation against the block's largest exponent;
* an orthonormal 4-point DCT-II as the decorrelating transform;
* coefficients rounded to ``precision`` bits below the block exponent.

The integer coefficients (section ``codes``, block after block) and the block
exponents (section ``emax``) then go through the shared
:class:`~repro.compression.stages.EntropyStage`, standing in for ZFP's
bit-plane entropy coding exactly as it stands in for Huffman + Zstd in the SZ
codecs: the narrowest integer width, byte planes, run-length + Huffman
DEFLATE.  ``compression_level`` is that stage's level.  The encode walks the
blocks a slab at a time, so its only whole-tensor arrays are the int32 codes
and exponents: an allocation peak 4.2x a float32 tensor, 12.1x whole-tensor.

As in real ZFP's fixed-precision mode, the reconstruction error is *not*
strictly bounded by a user error bound (``strictly_bounded = False``).
Reconstructions are bit-identical to the pre-refactor implementation
(``ReferenceZFPCompressor``); payloads are not — that one bit-packed sign and
magnitude itself and deflated the packed stream — and a payload in its layout
is rejected as corrupt.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.compression.base import ErrorBoundMode, resolve_error_bound
from repro.compression.errors import CorruptPayloadError, InvalidErrorBoundError
from repro.compression.stages import EntropyStage, PredictorStage, StageContext, StagedCompressor

_BLOCK = 4

#: Values per slab of the encode walk.  Compress time of MobileNetV2-paper is
#: flat from 8K to 512K (169–175 ms; whole-tensor body 240), so SZ2's slab.
_SLAB_ELEMENTS = 1 << 16

#: Retained coefficient bits; a payload declaring anything else is forged.
_MIN_PRECISION, _MAX_PRECISION = 2, 30

#: Orthonormal 4-point DCT-II matrix (rows are basis vectors).
_DCT_MATRIX = np.array(
    [
        [0.5, 0.5, 0.5, 0.5],
        [0.6532814824381883, 0.27059805007309845, -0.27059805007309845, -0.6532814824381883],
        [0.5, -0.5, -0.5, 0.5],
        [0.27059805007309845, -0.6532814824381883, 0.6532814824381883, -0.27059805007309845],
    ],
    dtype=np.float64,
)


def precision_for_relative_bound(relative_bound: float) -> int:
    """Map a relative error bound onto a fixed coefficient precision.

    ``precision = ceil(log2(1 / rel)) + 1`` clamped to [2, 30], mirroring how
    the paper picks ZFP's fixed-precision mode as "the closest analogous
    option" to a relative bound.
    """
    if relative_bound <= 0 or not np.isfinite(relative_bound):
        raise InvalidErrorBoundError(
            f"relative bound must be positive and finite, got {relative_bound}"
        )
    precision = int(np.ceil(np.log2(1.0 / relative_bound))) + 1
    return int(np.clip(precision, _MIN_PRECISION, _MAX_PRECISION))


class ZFPPredictor(PredictorStage):
    """Block DCT transform + fixed-precision coefficient coding (ZFP analogue)."""

    name = "zfp-transform"

    def __init__(self, entropy: EntropyStage) -> None:
        self.entropy = entropy

    def prepare(self, flat: np.ndarray, ctx: StageContext) -> None:
        # ZFP's bound semantics differ from the SZ family: the requested bound
        # only selects the retained coefficient precision, and the raw
        # fallback triggers solely for empty input (constant data still goes
        # through the transform, faithful to the original tool).  The bound is
        # checked as every codec checks it; read as ABS, that needs no scan.
        bound = resolve_error_bound(flat, ctx.error_bound, ErrorBoundMode.ABS)
        if ctx.mode == ErrorBoundMode.REL:
            precision = precision_for_relative_bound(bound)
        else:
            # Absolute bounds are translated against the data range so that a
            # tighter bound still yields more retained bits.
            # The value range as a REL bound of 1 resolves it (1.0 when empty).
            finite_range = resolve_error_bound(flat, 1.0, ErrorBoundMode.REL, ctx.value_range)
            relative = bound / finite_range if finite_range > 0 else bound
            precision = precision_for_relative_bound(max(relative, 1e-9))
        ctx.params["precision"] = precision
        ctx.raw = ctx.size == 0

    def encode(self, flat: np.ndarray, ctx: StageContext) -> Dict[str, bytes]:
        precision = int(ctx.params["precision"])
        limit = (1 << (precision + 1)) - 1
        num_blocks = -(-flat.size // _BLOCK)
        slab_blocks = max(1, min(num_blocks, _SLAB_ELEMENTS // _BLOCK))
        values = np.empty((slab_blocks, _BLOCK), dtype=np.float64)
        scratch = np.empty_like(values)
        emax = np.zeros(num_blocks, dtype=np.int32)
        codes = np.empty((num_blocks, _BLOCK), dtype=np.int32)

        for first in range(0, num_blocks, slab_blocks):
            rows = slice(first, min(first + slab_blocks, num_blocks))
            blocks, work = values[: rows.stop - first], scratch[: rows.stop - first]
            # Upcast the slab; the last block is padded with zeros, which is
            # ZFP's block-floating-point alignment of a partial block.
            chunk = flat[first * _BLOCK : rows.stop * _BLOCK]
            filled = blocks.reshape(-1)
            filled[: chunk.size] = chunk
            filled[chunk.size :] = 0.0

            # Block-floating-point: every value as mantissa * 2^emax, emax the
            # block's largest exponent.  (The maximum is taken column against
            # column: a reduction along an axis of four is 5x slower.)
            magnitudes = np.abs(blocks, out=work)
            max_magnitude = np.maximum(
                np.maximum(magnitudes[:, 0], magnitudes[:, 1]),
                np.maximum(magnitudes[:, 2], magnitudes[:, 3]),
            )
            exponents = emax[rows]
            nonzero = max_magnitude > 0
            exponents[nonzero] = np.ceil(np.log2(max_magnitude[nonzero])).astype(np.int32)
            blocks *= np.ldexp(1.0, -exponents)[:, None]  # values in [-1, 1]

            coefficients = np.matmul(blocks, _DCT_MATRIX.T, out=work)  # within [-2, 2]

            # Fixed-precision quantization: a coefficient keeps ``precision``
            # bits below the block exponent, so its magnitude reaches 2 *
            # 2^(precision-1) at most and the codes fit 32 bits at any precision.
            coefficients *= float(1 << (precision - 1))
            np.rint(coefficients, out=coefficients)
            np.clip(coefficients, -limit, limit, out=coefficients)
            np.copyto(codes[rows], coefficients, casting="unsafe")

        return {
            "emax": self.entropy.encode(emax),
            "codes": self.entropy.encode(codes.ravel()),
        }

    def decode(self, sections: Mapping[str, bytes], ctx: StageContext) -> np.ndarray:
        size = ctx.size
        precision = ctx.params.get("precision")
        if not isinstance(precision, int) or not _MIN_PRECISION <= precision <= _MAX_PRECISION:
            raise CorruptPayloadError(f"zfp payload declares precision {precision!r}")
        num_blocks = -(-size // _BLOCK)

        emax = EntropyStage.decode(sections["emax"]).astype(np.int32)
        codes = EntropyStage.decode(sections["codes"])
        if emax.size != num_blocks or codes.size != num_blocks * _BLOCK:
            raise CorruptPayloadError(
                f"zfp payload holds {emax.size} exponents and {codes.size} coefficients "
                f"for {num_blocks} blocks"
            )

        coefficients = codes.reshape(num_blocks, _BLOCK) / float(1 << (precision - 1))
        normalized = coefficients @ _DCT_MATRIX  # inverse of an orthonormal transform
        normalized *= np.ldexp(1.0, emax)[:, None]

        return normalized.ravel()[:size]


class ZFPCompressor(StagedCompressor):
    """Block transform + fixed-precision coefficient coding (ZFP analogue)."""

    name = "zfp"
    strictly_bounded = False
    pool_min_values = 1 << 16

    def __init__(self, compression_level: int = 6) -> None:
        self.compression_level = int(compression_level)

    def _predictor(self) -> ZFPPredictor:
        return ZFPPredictor(EntropyStage(self.compression_level))
