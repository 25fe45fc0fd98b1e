"""SZ2-style error-bounded lossy compressor, as a predictor stage.

SZ2 (Liang et al., IEEE Big Data 2018) is a prediction-based compressor: data
are processed in small blocks, each block is predicted either with a Lorenzo
predictor (previous-value prediction) or a linear-regression fit, the
prediction residuals are quantized onto a uniform grid of width ``2ε`` and the
resulting integer indices are entropy-coded (Huffman + Zstd in the original
implementation).

In the stage pipeline (:mod:`repro.compression.stages`) only the hybrid
Lorenzo/regression *prediction* lives here; validation, bound resolution, the
raw fallback, ``2ε`` quantization, entropy coding and payload framing are the
shared stages.  The decompressed output always satisfies ``|x - x̂| <= ε``
element-wise and is bit-identical to the pre-refactor monolithic
implementation (pinned by ``tests/compression/test_staged_equivalence.py``).

The encode kernel is written against memory traffic, which is what a numpy
codec pays for: one float64 scratch array carries scale → ``rint`` for both
candidates, the centred blocks of the regression fit, the predictions and the
per-value bit costs in turn; codes are int32 from the quantizer on (int64 only
when their measured range demands it); the cost model is a table lookup; and
the two candidates are merged by overwriting the rows of the rarer mode.  The
allocation peak is ~10x a float32 input, pinned by
``tests/compression/test_sz2_kernel.py``.  Decoding runs every block in place
as the mode most blocks are in and redoes only the others, so the row
gather/scatter touches a few percent of a weight tensor instead of all of it.
None of this changes a code, a mode flag or a coefficient.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.compression.base import pack_array, unpack_array
from repro.compression.bitstream import pack_bit_flags, unpack_bit_flags
from repro.compression.entropy import EntropyBackend
from repro.compression.errors import CorruptPayloadError
from repro.compression.stages import (
    EntropyStage,
    PredictorStage,
    Quantizer,
    StageContext,
    StagedCompressor,
    pad_to_blocks,
)


class SZ2Predictor(PredictorStage):
    """Blockwise hybrid Lorenzo/regression prediction (SZ2 analogue)."""

    name = "sz2-hybrid"

    def __init__(self, block_size: int, entropy: EntropyStage) -> None:
        self.block_size = int(block_size)
        self.entropy = entropy

    def prepare(self, flat: np.ndarray, ctx: StageContext) -> None:
        super().prepare(flat, ctx)
        ctx.params["block_size"] = self.block_size
        # Anchor the quantization grid at zero: model weights are centred on
        # zero, so this keeps the quantization error itself zero-mean and makes
        # the error distribution mirror the (heavy-tailed) weight distribution,
        # which is the behaviour Section VII-D analyses.
        ctx.params["offset"] = 0.0

    def encode(self, flat: np.ndarray, ctx: StageContext) -> Dict[str, bytes]:
        offset = float(ctx.params["offset"])
        block = self.block_size
        padded, num_blocks = pad_to_blocks(flat, block, fill="edge")
        blocks = padded.reshape(num_blocks, block)
        # Every full-size float64 intermediate of the tensor lives in here.
        scratch = np.empty_like(blocks)

        # --- Lorenzo candidate: delta of quantized values, which for uniform
        # quantization telescopes to an exactly error-bounded reconstruction.
        codes = _lorenzo_deltas(Quantizer.encode(blocks, offset, ctx, out=scratch))
        magnitudes = np.empty(blocks.shape, dtype=np.intp)
        lorenzo_cost = _estimate_block_bits(codes, magnitudes, scratch)

        # --- Regression candidate -----------------------------------------
        positions = np.arange(block, dtype=np.float64)
        position_mean = positions.mean()
        position_var = float(np.sum((positions - position_mean) ** 2))
        block_means = blocks.mean(axis=1)
        np.subtract(blocks, block_means[:, None], out=scratch)
        slopes = (scratch @ (positions - position_mean)) / position_var
        intercepts = block_means - slopes * position_mean
        # Coefficients are stored as float32; predict with the stored precision
        # so that compression and decompression agree exactly.
        slopes32 = slopes.astype(np.float32)
        intercepts32 = intercepts.astype(np.float32)
        predictions = _regression_predictions(intercepts32, slopes32, positions, out=scratch)
        regression_codes = Quantizer.encode(blocks, predictions, ctx, out=scratch)

        # --- Per-block mode selection -------------------------------------
        regression_cost = _estimate_block_bits(regression_codes, magnitudes, scratch)
        regression_cost += 64.0  # two float32 coefficients
        use_regression = regression_cost < lorenzo_cost
        width = np.result_type(codes, regression_codes)
        codes = codes.astype(width, copy=False)
        regression_codes = regression_codes.astype(width, copy=False)
        # Merge by overwriting the rows of the rarer mode in the other array.
        if 2 * np.count_nonzero(use_regression) > num_blocks:
            lorenzo_rows = np.flatnonzero(~use_regression)
            regression_codes[lorenzo_rows] = codes[lorenzo_rows]
            codes = regression_codes
        else:
            regression_rows = np.flatnonzero(use_regression)
            codes[regression_rows] = regression_codes[regression_rows]
        coefficients = np.stack([intercepts32[use_regression], slopes32[use_regression]], axis=1)

        return {
            "modes": pack_bit_flags(use_regression),
            "coef": pack_array(coefficients),
            "codes": self.entropy.encode(codes.ravel()),
        }

    def decode(self, sections: Mapping[str, bytes], ctx: StageContext) -> np.ndarray:
        size = ctx.size
        offset = float(ctx.params.get("offset", 0.0))
        block = int(ctx.params["block_size"])
        num_blocks = -(-size // block) if size else 0

        codes = EntropyStage.decode(sections["codes"])
        use_regression = unpack_bit_flags(sections["modes"], num_blocks)
        coefficients = unpack_array(sections["coef"]).reshape(-1, 2)
        regression_rows = np.flatnonzero(use_regression)
        lorenzo_rows = np.flatnonzero(~use_regression)
        if codes.size != num_blocks * block or len(coefficients) != regression_rows.size:
            raise CorruptPayloadError("sz2 payload sections disagree on the block count")
        codes = codes.reshape(num_blocks, block)
        positions = np.arange(block, dtype=np.float64)

        # Decode every block in place as the mode most blocks are in (weights:
        # regression; smooth fields: Lorenzo), then redo the other blocks.
        # Only those few rows are ever gathered and scattered.
        reconstruction = np.empty((num_blocks, block), dtype=np.float64)
        if regression_rows.size <= lorenzo_rows.size:
            Quantizer.decode(
                _lorenzo_quantized(codes, out=reconstruction), offset, ctx, out=reconstruction
            )
            if regression_rows.size:
                predictions = _regression_predictions(
                    coefficients[:, 0], coefficients[:, 1], positions
                )
                reconstruction[regression_rows] = Quantizer.decode(
                    codes[regression_rows], predictions, ctx
                )
        else:
            lines = np.zeros((num_blocks, 2), dtype=coefficients.dtype)
            lines[regression_rows] = coefficients
            predictions = _regression_predictions(lines[:, 0], lines[:, 1], positions)
            Quantizer.decode(codes, predictions, ctx, out=reconstruction)
            if lorenzo_rows.size:
                reconstruction[lorenzo_rows] = Quantizer.decode(
                    _lorenzo_quantized(codes[lorenzo_rows]), offset, ctx
                )

        return reconstruction.ravel()[:size]


class SZ2Compressor(StagedCompressor):
    """Blockwise hybrid Lorenzo/regression compressor (SZ2 analogue)."""

    name = "sz2"

    def __init__(
        self,
        block_size: int = 256,
        entropy_backend: EntropyBackend = "deflate",
        compression_level: int = 6,
    ) -> None:
        if block_size < 4:
            raise ValueError(f"block_size must be >= 4, got {block_size}")
        self.block_size = int(block_size)
        self.entropy_backend = entropy_backend
        self.compression_level = int(compression_level)

    def _predictor(self) -> SZ2Predictor:
        return SZ2Predictor(
            self.block_size, EntropyStage(self.entropy_backend, self.compression_level)
        )


def _regression_predictions(
    intercepts32: np.ndarray,
    slopes32: np.ndarray,
    positions: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-block line ``intercept + slope * position`` from float32 coefficients."""
    predictions = np.multiply(
        slopes32.astype(np.float64)[:, None], positions[None, :], out=out
    )
    predictions += intercepts32.astype(np.float64)[:, None]
    return predictions


def _lorenzo_deltas(quantized: np.ndarray) -> np.ndarray:
    """Previous-value prediction residuals along each block, in the same dtype."""
    codes = np.empty_like(quantized)
    codes[:, 0] = quantized[:, 0]
    np.subtract(quantized[:, 1:], quantized[:, :-1], out=codes[:, 1:])
    return codes


def _lorenzo_quantized(codes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Undo the Lorenzo delta: running sum of the codes along each block.

    The sums are the encoder's quantized values, integers that came out of a
    float64, so summing codes of up to 32 bits in float64 is exact; 64-bit
    codes need not be exact floats themselves and are summed as integers.
    """
    if codes.dtype.itemsize > 4:
        return np.cumsum(codes, axis=1)
    return np.cumsum(codes, axis=1, dtype=np.float64, out=out)


#: ``log2(2m + 1) + 1`` for every magnitude ``m`` below 4096 (32 KB): the
#: cost model of :func:`_estimate_block_bits` as a lookup.
_COST_TABLE = np.log2(2.0 * np.arange(4096, dtype=np.float64) + 1.0) + 1.0
_COST_TABLE.setflags(write=False)


def _estimate_block_bits(
    codes: np.ndarray, magnitudes: np.ndarray, costs: np.ndarray
) -> np.ndarray:
    """Rough per-block coding cost in bits used for mode selection.

    The cost model assumes roughly ``log2(2|c| + 1) + 1`` bits per residual,
    which tracks the behaviour of the downstream entropy coder closely enough
    to pick the better predictor without actually running it per block.
    ``magnitudes`` (intp) and ``costs`` (float64) are scratch arrays of the
    shape of ``codes``.
    """
    np.abs(codes, out=magnitudes)
    if magnitudes.size and magnitudes.max() < _COST_TABLE.size:
        # In range by the test above; "raise" would gather through a buffer.
        np.take(_COST_TABLE, magnitudes, out=costs, mode="clip")
    else:
        np.multiply(magnitudes, 2.0, out=costs)
        costs += 1.0
        np.log2(costs, out=costs)
        costs += 1.0
    return costs.sum(axis=1)
