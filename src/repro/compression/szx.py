"""SZx-style ultra-fast error-bounded lossy compressor, as a predictor stage.

SZx (Yu et al., HPDC 2022) trades compression ratio for speed: the data are
scanned in fixed-size blocks, each block is either declared *constant* (every
value within the error bound of the block mean, so only the mean is stored) or
*non-constant*, in which case the values are stored with cheap bit-wise
truncation and no entropy coding at all.

In the stage pipeline this module holds only the constant-block /
bit-truncation predictor:

* constant blocks store a single float32 mean;
* non-constant blocks store, per value, a sign bit and a magnitude index
  obtained by *truncating* (not rounding) ``|x - mean| / ε`` — truncation
  toward the mean mirrors SZx's bit-plane truncation and is the reason its
  reconstructions are noticeably biased compared to the rounding-based SZ2 /
  SZ3 pipelines, which is exactly the behaviour the FedSZ paper observes
  (compression ratio pinned near ~4.8× and poor model accuracy).

No entropy stage is applied, keeping the codec extremely fast.  Outputs are
bit-identical to the pre-refactor implementation.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.compression.base import pack_array, unpack_array
from repro.compression.bitstream import pack_bit_flags, unpack_bit_flags
from repro.compression.errors import CorruptPayloadError
from repro.compression.stages import (
    PredictorStage,
    StageContext,
    StagedCompressor,
    pad_to_blocks,
)


class SZxPredictor(PredictorStage):
    """Constant-block detection plus fixed-width bit truncation (SZx analogue)."""

    name = "szx-truncation"

    def __init__(self, block_size: int) -> None:
        self.block_size = int(block_size)

    def prepare(self, flat: np.ndarray, ctx: StageContext) -> None:
        super().prepare(flat, ctx)
        ctx.params["block_size"] = self.block_size

    def encode(self, flat: np.ndarray, ctx: StageContext) -> Dict[str, bytes]:
        absolute_bound = ctx.absolute_bound
        block = self.block_size
        padded, num_blocks = pad_to_blocks(flat, block, fill="edge")
        blocks = padded.reshape(num_blocks, block)

        # Block means are stored as float32, so compute constancy against the
        # value that will actually be reconstructed.
        means = blocks.mean(axis=1).astype(np.float32).astype(np.float64)
        deviations = blocks - means[:, None]
        is_constant = np.max(np.abs(deviations), axis=1) <= absolute_bound

        # Non-constant blocks: truncate |x - mean| / ε toward zero, keep a sign
        # bit and a per-block fixed bit width.
        magnitudes = np.floor(np.abs(deviations) / absolute_bound).astype(np.uint64)
        signs = (deviations < 0).astype(np.uint8)
        block_max = magnitudes.max(axis=1)
        widths = np.zeros(num_blocks, dtype=np.uint8)
        nonconstant = ~is_constant
        if np.any(nonconstant):
            widths[nonconstant] = np.maximum(
                1, np.ceil(np.log2(block_max[nonconstant].astype(np.float64) + 1.0)).astype(np.uint8)
            )

        # Blocks are stored grouped by bit width (ascending) so that each group
        # can be packed and unpacked with a single vectorised operation instead
        # of a per-block Python loop.  The decompressor reconstructs the same
        # grouping from the ``widths`` array.
        payload_parts = []
        for width in np.unique(widths[nonconstant]):
            group = nonconstant & (widths == width)
            packed = _pack_group_values(magnitudes[group], signs[group], int(width))
            payload_parts.append(packed)
        values_blob = b"".join(payload_parts)

        return {
            "flags": pack_bit_flags(is_constant),
            "means": pack_array(means.astype(np.float32)),
            "widths": pack_array(widths),
            "values": values_blob,
        }

    def decode(self, sections: Mapping[str, bytes], ctx: StageContext) -> np.ndarray:
        size = ctx.size
        absolute_bound = ctx.absolute_bound
        block = int(ctx.params["block_size"])
        num_blocks = -(-size // block)

        is_constant = unpack_bit_flags(sections["flags"], num_blocks)
        means = unpack_array(sections["means"]).astype(np.float64)
        widths = unpack_array(sections["widths"]).astype(np.int64)
        values_blob = sections["values"]

        reconstruction = np.repeat(means[:, None], block, axis=1)

        cursor = 0
        nonconstant = ~is_constant
        for width in np.unique(widths[nonconstant]):
            group = nonconstant & (widths == width)
            group_count = int(np.count_nonzero(group))
            nbytes = _packed_group_nbytes(group_count, block, int(width))
            chunk = values_blob[cursor : cursor + nbytes]
            if len(chunk) != nbytes:
                raise CorruptPayloadError("szx payload truncated inside value blocks")
            cursor += nbytes
            magnitudes, signs = _unpack_group_values(chunk, group_count, block, int(width))
            deviations = magnitudes.astype(np.float64) * absolute_bound
            deviations[signs.astype(bool)] *= -1.0
            reconstruction[group] = means[group, None] + deviations

        return reconstruction.ravel()[:size]


class SZxCompressor(StagedCompressor):
    """Constant-block + bit-truncation compressor (SZx analogue)."""

    name = "szx"

    def __init__(self, block_size: int = 128) -> None:
        if block_size < 4:
            raise ValueError(f"block_size must be >= 4, got {block_size}")
        self.block_size = int(block_size)

    def _predictor(self) -> SZxPredictor:
        return SZxPredictor(self.block_size)


def _packed_group_nbytes(group_count: int, block: int, width: int) -> int:
    """Bytes used to store a group of non-constant blocks at the same width."""
    total_bits = group_count * block * (width + 1)
    return (total_bits + 7) // 8


def _pack_group_values(magnitudes: np.ndarray, signs: np.ndarray, width: int) -> bytes:
    """Bit-pack sign + fixed-width magnitude for a group of blocks.

    The bit matrix is filled one column (bit position) at a time from the
    magnitudes in their smallest unsigned dtype, so no intermediate is wider
    than a byte per bit.
    """
    dtype = np.min_scalar_type((1 << width) - 1)
    narrow = magnitudes.astype(dtype).ravel()
    bits = np.empty((narrow.size, width + 1), dtype=np.uint8)
    bits[:, 0] = signs.ravel()
    for column in range(width):
        shifted = narrow >> dtype.type(width - 1 - column)
        np.bitwise_and(shifted, 1, out=bits[:, 1 + column], casting="unsafe")
    return np.packbits(bits).tobytes()


def _unpack_group_values(
    chunk: bytes, group_count: int, block: int, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_pack_group_values`."""
    values = group_count * block
    bits = np.unpackbits(np.frombuffer(chunk, dtype=np.uint8))[: values * (width + 1)]
    bits = bits.reshape(values, width + 1)
    magnitudes = bits[:, 1].astype(np.min_scalar_type((1 << width) - 1))
    for column in range(2, width + 1):
        magnitudes <<= 1
        magnitudes |= bits[:, column]
    return magnitudes.reshape(group_count, block), bits[:, 0].reshape(group_count, block)
