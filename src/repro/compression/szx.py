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

No entropy stage is applied, so all of the codec's cost is memory traffic, and
both kernels are written against it as SZ2's are.  ``encode`` walks the blocks
in slabs of :data:`_SLAB_ELEMENTS` values, upcast from the tensor's own dtype
into one reused float64 buffer (the last block's edge padding included), and
takes mean → deviation → ``|·|`` → block maximum → ``/ε`` in that buffer.  What
leaves a slab is one unsigned *code* per value: the truncated magnitude with
the sign in the bit above the block's width, in the narrowest dtype the widths
seen so far need (uint8 up to 7 bits, which is every block of a weight tensor
at REL 1e-2).  A block's width is the bit length of its largest magnitude, and
that is ``⌊max|x − mean| / ε⌋``: division by one ``ε`` and ``floor`` are both
monotone, so the block maximum taken before them lands on the same integer and
no magnitude matrix is kept to reduce.  The codes are the only whole-tensor
intermediate.

Blocks are stored grouped by width, ascending, each group one MSB-first run of
``width + 1``-bit fields padded to a byte (:func:`_pack_fields`).  Eight fields
fill ``width + 1`` bytes exactly, so the packer builds those bytes as
big-endian 64-bit words, one shift/or per field over a lane an eighth of the
group long — three passes over the data, where a byte-per-bit matrix filled a
column per bit costs ``width + 2``.  ``decode`` undoes a group a slab at a
time: fields → codes → ``magnitude · ε · (1 − 2·sign) + mean`` in one float64
buffer, written straight into an output of the tensor's dtype; constant blocks
are filled with their means and nothing else.

Allocation peaks on a 9.4 MB float32 tensor at REL 1e-2: 0.85x the input to
compress (the codes, and the payload twice while it is framed) and 1.3x to
decompress (the output and the received values), against 10.4x and 7.4x with
whole-tensor float64 / uint64 temporaries and the bit matrix;
``tests/compression/test_szx_kernel.py`` pins SZ2's 2.5x, and the golden
corpus (``tests/golden/``) every payload byte of that whole-tensor body.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.compression.base import pack_array, unpack_array
from repro.compression.bitstream import pack_bit_flags, unpack_bit_flags
from repro.compression.errors import CorruptPayloadError, InvalidErrorBoundError
from repro.compression.stages import PredictorStage, StageContext, StagedCompressor

#: Values per slab of the encode, pack and decode walks (rounded down to whole
#: groups of eight blocks, at least one: see :func:`_slab_blocks`).  Per value a
#: slab keeps ≈10 bytes live — the float64 buffer, a flag, the code.  Compress
#: / decompress ms of a 2.36M-value float32 layer at REL 1e-2 (medians of 15
#: interleaved runs): 8K 33.0 / 20.2, 16K 25.7 / 15.2, 32K 22.2 / 13.1, 64K
#: 20.6 / 11.7, 128K 20.7 / 12.9, 256K 22.0 / 12.9, 512K 24.2 / 14.2, 1M 25.4 /
#: 15.0 (whole-tensor body: 68 / 73) — a plateau from 32K to 256K, SZ2's slab
#: in its middle.
_SLAB_ELEMENTS = 1 << 16

#: The widest magnitude a code can carry under its sign bit.
_MAX_WIDTH = 63


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
        num_blocks = -(-flat.size // block)
        slab_blocks = _slab_blocks(block)
        values = np.empty((min(num_blocks, slab_blocks), block), dtype=np.float64)
        negative = np.empty(values.shape, dtype=bool)

        means = np.empty(num_blocks, dtype=np.float64)
        means_dtype = np.float32
        widths = np.empty(num_blocks, dtype=np.uint8)  # 0: a constant block
        codes = np.empty((num_blocks, block), dtype=np.uint8)

        for first in range(0, num_blocks, slab_blocks):
            rows = slice(first, min(first + slab_blocks, num_blocks))
            blocks, signs = values[: rows.stop - first], negative[: rows.stop - first]
            # Upcast the slab; the last block is padded with the last value,
            # which keeps the pad inside that block's range.
            chunk = flat[first * block : rows.stop * block]
            filled = blocks.reshape(-1)
            filled[: chunk.size] = chunk
            filled[chunk.size :] = chunk[-1]

            # Block means are stored as float32, so compute constancy against
            # the value that will actually be reconstructed.  A mean beyond
            # float32 (float64 tensors only) stays float64, and so does the section.
            exact = blocks.mean(axis=1)
            with np.errstate(over="ignore"):
                stored = exact.astype(np.float32).astype(np.float64)
                overflowed = np.isinf(stored)
                if overflowed.any():
                    stored[overflowed] = exact[overflowed]
                    means_dtype = np.float64
                means[rows] = stored
                np.subtract(blocks, stored[:, None], out=blocks)
                np.less(blocks, 0.0, out=signs)
                np.abs(blocks, out=blocks)
                peak = blocks.max(axis=1)
                top = np.floor(peak / absolute_bound)  # the block's largest magnitude
            if not top.max() < 2.0**_MAX_WIDTH:  # or not finite
                raise InvalidErrorBoundError(
                    f"szx cannot hold bound {absolute_bound}: a block spans 2^{_MAX_WIDTH} of it"
                )
            # Its bit length: frexp's exponent, which is ``ceil(log2(top + 1))``
            # below 2^49 and stays exact above, where that comes out a bit short.
            widths[rows] = np.where(peak <= absolute_bound, 0, np.maximum(1, np.frexp(top)[1]))

            # Non-constant blocks: truncate |x - mean| / ε toward zero (the
            # cast drops the fraction) and set the sign in the bit above the width.
            widest = int(widths[rows].max())
            if codes.itemsize * 8 <= widest:
                codes = codes.astype(np.min_scalar_type((2 << widest) - 1))
            np.divide(blocks, absolute_bound, out=blocks)
            np.copyto(codes[rows], blocks, casting="unsafe")
            codes[rows] |= np.left_shift(signs, widths[rows, None], dtype=codes.dtype)

        # Blocks are stored grouped by bit width (ascending) so that each group
        # is one run of equal fields.  The decompressor reconstructs the same
        # grouping from the ``widths`` array.  Eight blocks are whole bytes at
        # any width, so a group is packed a slab at a time.
        parts = []
        for width in np.unique(widths[widths > 0]).tolist():
            members = np.flatnonzero(widths == width)
            for start in range(0, members.size, slab_blocks):
                fields = codes[members[start : start + slab_blocks]].reshape(-1)
                parts.append(_pack_fields(fields, width + 1))
        return {
            "flags": pack_bit_flags(widths == 0),
            "means": pack_array(means.astype(means_dtype)),
            "widths": pack_array(widths),
            "values": b"".join(parts),
        }

    def decode(self, sections: Mapping[str, bytes], ctx: StageContext) -> np.ndarray:
        size = ctx.size
        absolute_bound = ctx.absolute_bound
        block = ctx.params.get("block_size")
        # Nothing block-sized is allocated before the sections agree with the metadata.
        if type(block) is not int or block < 1:
            raise CorruptPayloadError(f"szx payload declares block size {block!r}")
        num_blocks = -(-size // block)
        is_constant = unpack_bit_flags(sections["flags"], num_blocks)
        means = unpack_array(sections["means"])
        widths = unpack_array(sections["widths"])
        values_blob = sections["values"]
        if means.shape != (num_blocks,) or means.dtype.str not in ("<f4", "<f8"):
            raise CorruptPayloadError("szx payload means are not one float per block")
        if widths.shape != (num_blocks,) or widths.dtype.str != "|u1":
            raise CorruptPayloadError("szx payload widths are not one byte per block")
        # Blocks by width, constant ones under 0; byte counts as Python ints.
        census = np.bincount(np.where(is_constant, 0, widths), minlength=_MAX_WIDTH + 2).tolist()
        if census[0] != np.count_nonzero(is_constant) or any(census[_MAX_WIDTH + 1 :]):
            raise CorruptPayloadError(f"szx value blocks must be 1..{_MAX_WIDTH} bits wide")
        runs = [width for width in range(1, _MAX_WIDTH + 1) if census[width]]
        if len(values_blob) != sum(
            _packed_nbytes(census[width] * block, width + 1) for width in runs
        ):
            raise CorruptPayloadError("szx payload value blocks are not of the declared widths")
        # A block longer than the tensor is the only one, and what pads it is
        # never unpacked: the walk allocates by ``size``, whatever the block.
        block = min(block, size)

        restored = np.empty((num_blocks, block), dtype=ctx.dtype)
        constant = np.flatnonzero(is_constant)
        restored[constant] = means[constant, None]
        slab_blocks = _slab_blocks(block)
        values = np.empty((min(num_blocks, slab_blocks), block), dtype=np.float64)
        cursor = 0
        for width in runs:
            members = np.flatnonzero(~is_constant & (widths == width))
            for start in range(0, members.size, slab_blocks):
                rows = members[start : start + slab_blocks]
                nbytes = _packed_nbytes(rows.size * block, width + 1)
                chunk = values_blob[cursor : cursor + nbytes]
                cursor += nbytes
                codes = _unpack_fields(chunk, rows.size * block, width + 1).reshape(-1, block)
                # magnitude * ε, negated under a set sign bit, plus the mean.
                deviations = np.multiply(
                    codes & ((1 << width) - 1), absolute_bound, out=values[: rows.size]
                )
                deviations *= 1 - 2 * (codes >> width).astype(np.int8)
                deviations += means[rows, None]
                restored[rows] = deviations
        return restored.reshape(-1)[:size]


class SZxCompressor(StagedCompressor):
    """Constant-block + bit-truncation compressor (SZx analogue)."""

    name = "szx"
    pool_min_values = 1 << 20

    def __init__(self, block_size: int = 128) -> None:
        if block_size < 4:
            raise ValueError(f"block_size must be >= 4, got {block_size}")
        self.block_size = int(block_size)

    def _predictor(self) -> SZxPredictor:
        return SZxPredictor(self.block_size)


def _slab_blocks(block: int) -> int:
    """Blocks per slab: whole groups of eight, so a slab of any width is whole bytes."""
    return max(8, _SLAB_ELEMENTS // block // 8 * 8)


def _packed_nbytes(fields: int, bits: int) -> int:
    """Bytes that ``fields`` fields of ``bits`` bits occupy, padded to a byte."""
    return (fields * bits + 7) // 8


def _field_slots(bits: int):
    """``(field, word, shift)`` for each of eight consecutive ``bits``-bit
    fields within the big-endian uint64 words of the ``bits`` bytes they fill;
    under a negative shift the field runs on into the next word."""
    for field in range(8):
        word, offset = divmod(field * bits, 64)
        yield field, word, 64 - offset - bits


def _pack_fields(codes: np.ndarray, bits: int) -> bytes:
    """The low ``bits`` (at most 64) bits of each unsigned code, MSB first, end
    to end, zero-padded to a byte: ``np.packbits`` of the ``(codes, bits)`` bit
    matrix, built eight fields — ``bits`` bytes — to a lane."""
    nbytes = _packed_nbytes(codes.size, bits)
    if codes.size % 8:
        codes = np.concatenate([codes, np.zeros(-codes.size % 8, dtype=codes.dtype)])
    lanes = codes.reshape(-1, 8)
    words = np.zeros((len(lanes), -(-bits // 8)), dtype=np.uint64)
    moved = np.empty(len(lanes), dtype=np.uint64)
    for field, word, shift in _field_slots(bits):
        lane = lanes[:, field]
        if shift >= 0:
            words[:, word] |= np.left_shift(lane, shift, out=moved, dtype=np.uint64)
        else:
            words[:, word] |= np.right_shift(lane, -shift, out=moved, dtype=np.uint64)
            words[:, word + 1] |= np.left_shift(lane, 64 + shift, out=moved, dtype=np.uint64)
    packed = words.astype(">u8").view(np.uint8).reshape(len(lanes), -1)[:, :bits]
    return packed.tobytes()[:nbytes]


def _unpack_fields(chunk: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of :func:`_pack_fields`: ``count`` codes in the narrowest unsigned dtype."""
    groups, words_each = -(-count // 8), -(-bits // 8)
    # Each lane's words are read where its bytes lie; what a word takes in
    # past them (the next lane, the zeros appended here) is shifted out.
    raw = chunk + bytes(groups * bits - len(chunk) + 8 * words_each - bits)
    words = np.ndarray((groups, words_each), ">u8", raw, strides=(bits, 8)).astype(np.uint64)
    codes = np.empty((groups, 8), dtype=np.min_scalar_type((1 << bits) - 1))
    moved = np.empty(groups, dtype=np.uint64)
    for field, word, shift in _field_slots(bits):
        if shift >= 0:
            np.right_shift(words[:, word], np.uint64(shift), out=moved)
        else:
            np.left_shift(words[:, word], np.uint64(-shift), out=moved)
            moved |= words[:, word + 1] >> np.uint64(64 + shift)
        np.bitwise_and(moved, np.uint64((1 << bits) - 1), out=codes[:, field], casting="unsafe")
    return codes.reshape(-1)[:count]
