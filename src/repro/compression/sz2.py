"""SZ2-style error-bounded lossy compressor, as a predictor stage.

SZ2 (Liang et al., IEEE Big Data 2018) is a prediction-based compressor: data
are processed in small blocks, each block is predicted either with a Lorenzo
predictor (previous-value prediction) or a linear-regression fit, the
prediction residuals are quantized onto a uniform grid of width ``2ε`` and the
resulting integer indices are entropy-coded (Huffman + Zstd in the original
implementation, the shared DEFLATE stage of :mod:`repro.compression.entropy`
here).

In the stage pipeline (:mod:`repro.compression.stages`) only the hybrid
Lorenzo/regression *prediction* lives here; validation, bound resolution, the
raw fallback, ``2ε`` quantization, entropy coding and payload framing are the
shared stages.  The decompressed output always satisfies ``|x - x̂| <= ε``
element-wise and is bit-identical to the pre-refactor monolithic
implementation (pinned by the golden corpus, ``tests/golden/``).

Both kernels are written against memory traffic, which is what a numpy codec
pays for.  They walk the blocks in slabs — a run (below) of up to
:data:`_RUN_ELEMENTS` values as one slab, a larger tensor in slabs of
:data:`_SLAB_ELEMENTS` values — upcast from the tensor's own dtype into one
reused float64 buffer (the last block's edge padding included): a second
slab-sized scratch array carries
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
no code, mode flag or coefficient (``tests/golden/``).

A block never looks outside itself, so the walk takes a *run* of tensors: one
of any size, or consecutive ones whose blocks together fit
:data:`_RUN_ELEMENTS` (:func:`_runs`), filled into the same block matrix.  The
~35 numpy calls of a slab then cost a run what they cost one tensor — 210 µs
each for the ≤4,096 value tensors of a MobileNetV2 update, and AlexNet-tiny's
six lossy tensors (221,440 values) are one walk — and the only per-tensor
facts left in the walk are the edge pad of a tensor's last block and its
``ε``, a column of one entry per row (a scalar for a lone tensor, which numpy
divides by faster).
Each tensor keeps its own ``modes`` / ``coef`` / ``codes`` sections and its own
DEFLATE stream, byte for byte (``tests/golden/``'s group cases; the
one float reduction that sees neighbouring rows, the slope's matrix-vector
product, can differ in the last float64 bit with the row's position, as it
already did from slab to slab, and is rounded to the stored float32 before
use).  A list of tensors allocates one run's slab at a time: a full
2^18-value run encodes at a 10.5 MB peak (10x a float32 run, 4.0x with
2^16-value slabs), while tensors above the run limit keep the peaks above.
Decoding cuts its runs from each payload's own validated metadata (size,
block size, offset).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.compression.base import pack_array, unpack_array
from repro.compression.bitstream import pack_bit_flags, unpack_bit_flags
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

#: Values a run of consecutive tensors may hold (:func:`_runs`); a run that
#: fits walks as one slab, so only a lone tensor above this keeps
#: :data:`_SLAB_ELEMENTS` slabs.  The codec halves of 13 AlexNet-tiny uploads
#: (``encode_upload``, 221,440 lossy values each, medians of 9) on 1 and 2
#: lanes, and ``codec_bulk`` compress (medians of 4 runs), 2 vCPUs:
#:
#:   run limit        2^16    2^17    2^18    2^19    2^20
#:   1 lane, ms        231     214     212     210     209
#:   2 lanes, ms       172     150     139     140     147
#:   codec_bulk MB/s   238     257     251     255     243
#:
#: AlexNet-tiny is one walk from 2^18 on, and ``codec_bulk`` does not separate
#: the limits beyond its ±8% noise, so the smallest such limit is kept.
_RUN_ELEMENTS = 1 << 18


class SZ2Predictor(PredictorStage):
    """Blockwise hybrid Lorenzo/regression prediction (SZ2 analogue).

    ``encode`` / ``decode`` here are the run walks of the module docstring:
    they take the tensors (sections) and contexts of one run as sequences and
    return a list, and ``encode_group`` / ``decode_group`` cut the runs.  They
    keep the names of the one-tensor interface because the benchmark's trace
    times those attributes on every predictor.
    """

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

    def encode_group(
        self, flats: Sequence[np.ndarray], ctxs: Sequence[StageContext]
    ) -> List[Dict[str, bytes]]:
        sections: List[Dict[str, bytes]] = []
        for run in _runs([flat.size for flat in flats], self.block_size):
            sections += self.encode(flats[run], ctxs[run])
        return sections

    def decode_group(
        self, sections: Sequence[Mapping[str, bytes]], ctxs: Sequence[StageContext]
    ) -> List[np.ndarray]:
        restored: List[np.ndarray] = []
        # Only payloads that agree on block size and offset can share a walk.
        for (block, _), same in itertools.groupby(ctxs, key=_walk_params):
            for run in _runs([ctx.size for ctx in same], block):
                here = slice(len(restored), len(restored) + run.stop - run.start)
                restored += self.decode(sections[here], ctxs[here])
        return restored

    def encode(
        self, flats: Sequence[np.ndarray], ctxs: Sequence[StageContext]
    ) -> List[Dict[str, bytes]]:
        """Walk one run (see :func:`_runs`); one section dict per tensor."""
        offset = float(ctxs[0].params["offset"])  # ``prepare`` gave every tensor the same
        block = self.block_size
        spans, num_blocks, bounds = _layout([flat.size for flat in flats], ctxs, block)
        slab_blocks = _slab_blocks(num_blocks, block)
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
            bound = _rows_of(bounds, rows)
            # Upcast the slab; each tensor's last block is padded with its
            # last value, which keeps the pad inside that block's range.
            for member, slab_rows, elements in _overlaps(spans, rows, block):
                chunk = flats[member][elements]
                filled = blocks[slab_rows].reshape(-1)
                filled[: chunk.size] = chunk
                filled[chunk.size :] = chunk[-1]

            # --- Lorenzo candidate: delta of quantized values, which for
            # uniform quantization telescopes to an exactly error-bounded
            # reconstruction.
            lorenzo = _lorenzo_deltas(Quantizer.encode(blocks, offset, bound, out=work))
            lorenzo_cost = _estimate_block_bits(lorenzo, magnitudes[:count], work)

            # --- Regression candidate -------------------------------------
            block_means = blocks.mean(axis=1)
            np.subtract(blocks, block_means[:, None], out=work)
            slopes = (work @ centred_positions) / position_var
            # Coefficients are stored as float32; predict with the stored
            # precision so that compression and decompression agree exactly.
            with np.errstate(over="ignore"):
                lines32[rows, 0] = block_means - slopes * position_mean
                lines32[rows, 1] = slopes
            # A line beyond float32 (float64 tensors only) predicts nothing:
            # zero it, and the block takes the Lorenzo candidate below.
            unfit = ~np.isfinite(lines32[rows]).all(axis=1)
            lines32[rows][unfit] = 0.0
            predictions = _regression_predictions(lines32[rows], positions, out=work)
            regression = Quantizer.encode(blocks, predictions, bound, out=work)

            # --- Per-block mode selection ---------------------------------
            regression_cost = _estimate_block_bits(regression, magnitudes[:count], work)
            regression_cost += 64.0  # two float32 coefficients
            picked = np.less(regression_cost, lorenzo_cost, out=use_regression[rows])
            picked &= ~unfit
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

        return [
            {
                "modes": pack_bit_flags(use_regression[span]),
                "coef": pack_array(lines32[span][use_regression[span]]),
                "codes": self.entropy.encode(codes[span].ravel()),
            }
            for span in spans
        ]

    def decode(
        self, sections: Sequence[Mapping[str, bytes]], ctxs: Sequence[StageContext]
    ) -> List[np.ndarray]:
        """Inverse walk of one run whose payloads agree on :func:`_walk_params`."""
        block, offset = _walk_params(ctxs[0])
        spans, num_blocks, bounds = _layout([ctx.size for ctx in ctxs], ctxs, block)
        parts = []
        for member, span in zip(sections, spans, strict=True):
            count = span.stop - span.start
            member_codes = EntropyStage.decode(member["codes"])
            member_modes = unpack_bit_flags(member["modes"], count)
            member_lines = unpack_array(member["coef"])
            if member_codes.size != count * block or member_lines.size != 2 * np.count_nonzero(
                member_modes
            ):
                raise CorruptPayloadError("sz2 payload sections disagree on the block count")
            parts.append((member_codes, member_modes, member_lines.reshape(-1, 2)))
        # One tensor's arrays are used as they are, copy-free; several are joined.
        codes, use_regression, coefficients = (
            parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts, strict=True))
        )
        codes = codes.reshape(num_blocks, block)
        lines = np.zeros((num_blocks, 2), dtype=coefficients.dtype)
        lines[use_regression] = coefficients
        positions = np.arange(block, dtype=np.float64)

        slab_blocks = _slab_blocks(num_blocks, block)
        values = np.empty((slab_blocks, block), dtype=np.float64)
        scratch = np.empty_like(values)
        restored = [np.empty(ctx.size, dtype=ctx.dtype) for ctx in ctxs]

        for first in range(0, num_blocks, slab_blocks):
            rows = slice(first, min(first + slab_blocks, num_blocks))
            slab_codes, slab_lines = codes[rows], lines[rows]
            reconstruction = values[: len(slab_codes)]
            regression_rows = np.flatnonzero(use_regression[rows])
            lorenzo_rows = np.flatnonzero(~use_regression[rows])
            bound = _rows_of(bounds, rows)

            # Decode every block of the slab in place as the mode most of
            # them are in (weights: regression; smooth fields: Lorenzo), then
            # redo the others.  Only those few rows are gathered and scattered.
            if regression_rows.size <= lorenzo_rows.size:
                quantized = _lorenzo_quantized(slab_codes, out=reconstruction)
                Quantizer.decode(quantized, offset, bound, out=reconstruction)
                if regression_rows.size:
                    predictions = _regression_predictions(slab_lines[regression_rows], positions)
                    reconstruction[regression_rows] = Quantizer.decode(
                        slab_codes[regression_rows], predictions, _rows_of(bound, regression_rows)
                    )
            else:
                predictions = _regression_predictions(
                    slab_lines, positions, out=scratch[: len(slab_codes)]
                )
                Quantizer.decode(slab_codes, predictions, bound, out=reconstruction)
                if lorenzo_rows.size:
                    reconstruction[lorenzo_rows] = Quantizer.decode(
                        _lorenzo_quantized(slab_codes[lorenzo_rows]),
                        offset,
                        _rows_of(bound, lorenzo_rows),
                    )

            # Rounds to each tensor's dtype and drops its last block's pad.
            for member, slab_rows, elements in _overlaps(spans, rows, block):
                kept = restored[member][elements]
                kept[...] = reconstruction[slab_rows].reshape(-1)[: kept.size]

        return restored


class SZ2Compressor(StagedCompressor):
    """Blockwise hybrid Lorenzo/regression compressor (SZ2 analogue)."""

    name = "sz2"
    pool_min_values = 1 << 16

    def __init__(
        self,
        block_size: int = 256,
        compression_level: int = 6,
    ) -> None:
        if block_size < 4:
            raise ValueError(f"block_size must be >= 4, got {block_size}")
        self.block_size = int(block_size)
        self.compression_level = int(compression_level)

    def group_slices(self, sizes: Sequence[int]) -> List[slice]:
        return _runs(sizes, self.block_size)

    def _predictor(self) -> SZ2Predictor:
        return SZ2Predictor(self.block_size, EntropyStage(self.compression_level))


def _runs(sizes: Sequence[int], block: int) -> List[slice]:
    """Consecutive tensors as runs: a new one starts where the next tensor's
    blocks no longer fit :data:`_RUN_ELEMENTS`, so a tensor of that size or
    more walks alone."""
    limit = max(1, _RUN_ELEMENTS // block)
    runs: List[slice] = []
    used = limit + 1
    for index, size in enumerate(sizes):
        blocks = -(-size // block)
        if used + blocks > limit:
            runs.append(slice(index, index))
            used = 0
        runs[-1] = slice(runs[-1].start, index + 1)
        used += blocks
    return runs


def _slab_blocks(num_blocks: int, block: int) -> int:
    """Blocks per slab of a run's walk: all of a run that fits :func:`_runs`'
    limit, :data:`_SLAB_ELEMENTS` worth of a lone tensor above it."""
    if num_blocks <= max(1, _RUN_ELEMENTS // block):
        return max(1, num_blocks)
    return max(1, _SLAB_ELEMENTS // block)


def _layout(sizes: Sequence[int], ctxs: Sequence[StageContext], block: int):
    """The rows of the run's block matrix each tensor fills, the row count, and ``ε`` by row.

    ``ε`` of a lone tensor stays a scalar — numpy divides a slab by a scalar
    1.5x and multiplies it 3.5x faster than by a broadcast column, and a tensor
    of many slabs is always alone; several tensors get a column of one per row.
    """
    spans: List[slice] = []
    stop = 0
    for size in sizes:
        spans.append(slice(stop, stop - (-size // block)))
        stop = spans[-1].stop
    if len(ctxs) == 1:
        return spans, stop, ctxs[0].absolute_bound
    bounds = np.empty((stop, 1), dtype=np.float64)
    for ctx, span in zip(ctxs, spans, strict=True):
        bounds[span] = ctx.absolute_bound
    return spans, stop, bounds


def _overlaps(spans: Sequence[slice], rows: slice, block: int):
    """``(tensor, its rows within the slab, its elements there)`` per tensor in slab ``rows``."""
    for member, span in enumerate(spans):
        lo, hi = max(rows.start, span.start), min(rows.stop, span.stop)
        if lo < hi:
            elements = slice((lo - span.start) * block, (hi - span.start) * block)
            yield member, slice(lo - rows.start, hi - rows.start), elements


def _rows_of(bounds, rows):
    return bounds if isinstance(bounds, float) else bounds[rows]


def _walk_params(ctx: StageContext) -> Tuple[int, float]:
    """Validated ``(block_size, offset)`` of a payload's metadata."""
    try:
        block, offset = int(ctx.params["block_size"]), float(ctx.params.get("offset", 0.0))
    except (KeyError, TypeError, ValueError) as error:
        raise CorruptPayloadError(f"corrupt sz2 payload parameters: {error!r}") from error
    if block < 1 or not math.isfinite(offset):
        raise CorruptPayloadError(f"sz2 payload declares block size {block}, offset {offset}")
    return block, offset


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
