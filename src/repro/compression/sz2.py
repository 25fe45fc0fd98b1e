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

Both kernels are written against memory traffic, which is what a numpy codec
pays for.  They walk the blocks in slabs of :data:`_SLAB_ELEMENTS` values,
upcast from the tensor's own dtype into one reused float64 buffer (the last
block's edge padding included): a second slab-sized scratch array carries
scale → ``rint`` for both candidates, the centred blocks of the regression
fit, the predictions and the per-value bit costs in turn, so every pass reads
and writes cache, not DRAM.  Codes are int32 from the quantizer on (the
whole-tensor output is widened to int64 once, when a slab's measured range
demands it); the cost model is a table lookup; the two candidates are merged
by overwriting the rows of the slab's rarer mode.  Decoding runs every block of
a slab in place as the mode most of them are in, redoes only the others, and
writes the slab straight into an output of the tensor's dtype.  The only
whole-tensor arrays are the codes and that output, so the allocation peak is
1.8x (encode) and 1.5x (decode) a 9.4 MB float32 input, 8.1x and 4.5x with
whole-tensor float64 intermediates; ``tests/compression/test_sz2_kernel.py``
pins 2.5x.  Every float operation runs per block or per value, so slabs change
no code, mode flag or coefficient (``tests/compression/test_sz2_slabs.py``).
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
)

#: Values per slab of the encode and decode walks (rounded down to whole
#: blocks, at least one).  Per value a slab keeps 36 bytes live while encoding
#: (three float64/intp buffers, three int32 code arrays), so 64K values are
#: 2.3 MB against 2 MiB of L2 per core here.  Predictor seconds over the 21
#: lossy tensors of ResNet18-paper (11.2M values; median of 15 interleaved
#: runs, encode / decode): 8K 0.230 / 0.066, 16K 0.180 / 0.053, 32K 0.184 /
#: 0.053, 64K 0.185 / 0.056, 128K 0.202 / 0.062, 256K 0.216 / 0.061, 512K
#: 0.223 / 0.059.  The plateau's upper end has the fewest Python iterations.
_SLAB_ELEMENTS = 1 << 16


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
        num_blocks = -(-flat.size // block)
        slab_blocks = max(1, min(num_blocks, _SLAB_ELEMENTS // block))
        # The float64 (and intp) arrays of the call, one slab long each.
        values = np.empty((slab_blocks, block), dtype=np.float64)
        scratch = np.empty_like(values)
        magnitudes = np.empty(values.shape, dtype=np.intp)
        positions = np.arange(block, dtype=np.float64)
        position_mean = positions.mean()
        centred_positions = positions - position_mean
        position_var = float(np.sum(centred_positions**2))

        codes = np.empty((num_blocks, block), dtype=np.int32)
        use_regression = np.empty(num_blocks, dtype=bool)
        lines32 = np.empty((num_blocks, 2), dtype=np.float32)  # (intercept, slope) rows

        for first in range(0, num_blocks, slab_blocks):
            rows = slice(first, min(first + slab_blocks, num_blocks))
            count = rows.stop - first
            blocks, work = values[:count], scratch[:count]
            # Upcast the slab; the tensor's last block is padded with its
            # last value, which keeps the pad inside that block's range.
            chunk = flat[first * block : rows.stop * block]
            blocks.reshape(-1)[: chunk.size] = chunk
            blocks.reshape(-1)[chunk.size :] = chunk[-1]

            # --- Lorenzo candidate: delta of quantized values, which for
            # uniform quantization telescopes to an exactly error-bounded
            # reconstruction.
            lorenzo = _lorenzo_deltas(Quantizer.encode(blocks, offset, ctx, out=work))
            lorenzo_cost = _estimate_block_bits(lorenzo, magnitudes[:count], work)

            # --- Regression candidate -------------------------------------
            block_means = blocks.mean(axis=1)
            np.subtract(blocks, block_means[:, None], out=work)
            slopes = (work @ centred_positions) / position_var
            # Coefficients are stored as float32; predict with the stored
            # precision so that compression and decompression agree exactly.
            lines32[rows, 0] = block_means - slopes * position_mean
            lines32[rows, 1] = slopes
            predictions = _regression_predictions(lines32[rows], positions, out=work)
            regression = Quantizer.encode(blocks, predictions, ctx, out=work)

            # --- Per-block mode selection ---------------------------------
            regression_cost = _estimate_block_bits(regression, magnitudes[:count], work)
            regression_cost += 64.0  # two float32 coefficients
            picked = np.less(regression_cost, lorenzo_cost, out=use_regression[rows])
            if max(lorenzo.itemsize, regression.itemsize) > codes.itemsize:
                codes = codes.astype(np.int64)
            # Merge by storing the slab of the commoner mode and overwriting
            # the rows of the rarer one.
            if 2 * np.count_nonzero(picked) > count:
                common, rare, rare_rows = regression, lorenzo, np.flatnonzero(~picked)
            else:
                common, rare, rare_rows = lorenzo, regression, np.flatnonzero(picked)
            codes[rows] = common
            codes[rows][rare_rows] = rare[rare_rows]

        return {
            "modes": pack_bit_flags(use_regression),
            "coef": pack_array(lines32[use_regression]),
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
        if codes.size != num_blocks * block or len(coefficients) != np.count_nonzero(
            use_regression
        ):
            raise CorruptPayloadError("sz2 payload sections disagree on the block count")
        codes = codes.reshape(num_blocks, block)
        lines = np.zeros((num_blocks, 2), dtype=coefficients.dtype)
        lines[use_regression] = coefficients
        positions = np.arange(block, dtype=np.float64)

        slab_blocks = max(1, min(num_blocks, _SLAB_ELEMENTS // block))
        values = np.empty((slab_blocks, block), dtype=np.float64)
        scratch = np.empty_like(values)
        restored = np.empty(size, dtype=ctx.dtype)

        for first in range(0, num_blocks, slab_blocks):
            rows = slice(first, min(first + slab_blocks, num_blocks))
            slab_codes, slab_lines = codes[rows], lines[rows]
            reconstruction = values[: len(slab_codes)]
            regression_rows = np.flatnonzero(use_regression[rows])
            lorenzo_rows = np.flatnonzero(~use_regression[rows])

            # Decode every block of the slab in place as the mode most of
            # them are in (weights: regression; smooth fields: Lorenzo), then
            # redo the others.  Only those few rows are gathered and scattered.
            if regression_rows.size <= lorenzo_rows.size:
                quantized = _lorenzo_quantized(slab_codes, out=reconstruction)
                Quantizer.decode(quantized, offset, ctx, out=reconstruction)
                if regression_rows.size:
                    predictions = _regression_predictions(slab_lines[regression_rows], positions)
                    reconstruction[regression_rows] = Quantizer.decode(
                        slab_codes[regression_rows], predictions, ctx
                    )
            else:
                predictions = _regression_predictions(
                    slab_lines, positions, out=scratch[: len(slab_codes)]
                )
                Quantizer.decode(slab_codes, predictions, ctx, out=reconstruction)
                if lorenzo_rows.size:
                    reconstruction[lorenzo_rows] = Quantizer.decode(
                        _lorenzo_quantized(slab_codes[lorenzo_rows]), offset, ctx
                    )

            # Rounds to the tensor's dtype and drops the last block's pad.
            kept = restored[first * block : rows.stop * block]
            kept[...] = reconstruction.reshape(-1)[: kept.size]

        return restored


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
    lines32: np.ndarray, positions: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-block line ``intercept + slope * position`` from float32 ``(intercept, slope)`` rows."""
    lines = lines32.astype(np.float64)
    predictions = np.multiply(lines[:, 1:], positions, out=out)
    predictions += lines[:, :1]
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
