"""Bit-level helpers shared by the codecs.

Three things live here: :func:`expand_msb_first`, the kernel behind the
vectorised Huffman encoder; :func:`pack_bit_flags` / :func:`unpack_bit_flags`,
the one-bit-per-block sections of the SZ2 (predictor mode) and SZx (constant
block) codecs; and a :class:`BitWriter` / :class:`BitReader` pair whose
``write_fixed_width`` packs an integer array at a common bit width in one
numpy operation.  No codec's hot path runs through the writer: SZx bit-packs
its fields a lane at a time (``szx._pack_fields``) and ZFP hands integer
coefficients to the entropy stage.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

import numpy as np

from repro.compression.errors import CorruptPayloadError

#: A queued write: either a ready bit array or a pending scalar
#: ``(value, width)`` append.  Scalar appends are expanded lazily so that a
#: long run of ``write_bit``/``write_bits`` calls costs one list append each
#: and a single vectorised expansion at render time.
_Part = Union[np.ndarray, Tuple[int, int]]


def expand_msb_first(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Expand variable-width codewords into one flat MSB-first bit array.

    ``values[i]`` contributes its ``widths[i]`` least-significant bits, most
    significant first — the shared kernel behind both the lazy
    :class:`BitWriter` render and the vectorised Huffman encoder.
    """
    values = np.asarray(values, dtype=np.uint64)
    widths = np.asarray(widths, dtype=np.int64)
    ends = np.cumsum(widths)
    starts = ends - widths
    total = int(ends[-1]) if widths.size else 0
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, widths)
    shifts = (np.repeat(widths, widths) - 1 - within).astype(np.uint64)
    return ((np.repeat(values, widths) >> shifts) & np.uint64(1)).astype(np.uint8)


def _expand_scalar_writes(pending: List[Tuple[int, int]]) -> np.ndarray:
    """Expand queued ``(value, width)`` appends into one MSB-first bit array."""
    values = np.fromiter((value for value, _ in pending), dtype=np.uint64, count=len(pending))
    widths = np.fromiter((width for _, width in pending), dtype=np.int64, count=len(pending))
    return expand_msb_first(values, widths)


class BitWriter:
    """Accumulates bits most-significant-bit first and renders them to bytes."""

    def __init__(self) -> None:
        self._parts: List[_Part] = []
        self._bit_count = 0

    @property
    def bit_count(self) -> int:
        """Number of bits written so far."""
        return self._bit_count

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._parts.append((bit & 1, 1))
        self._bit_count += 1

    def write_bits(self, value: int, width: int) -> None:
        """Append the ``width`` least-significant bits of ``value``, MSB first."""
        if width < 0:
            raise ValueError(f"bit width must be non-negative, got {width}")
        if width == 0:
            return
        value = int(value) & ((1 << width) - 1)
        if width <= 64:
            self._parts.append((value, width))
        else:
            bits = np.fromiter(
                ((value >> (width - 1 - i)) & 1 for i in range(width)),
                dtype=np.uint8,
                count=width,
            )
            self._parts.append(bits)
        self._bit_count += width

    def write_bit_array(self, bits: np.ndarray) -> None:
        """Append a flat array of 0/1 values."""
        bits = np.asarray(bits, dtype=np.uint8).ravel() & 1
        self._parts.append(bits)
        self._bit_count += bits.size

    def write_fixed_width(self, values: np.ndarray, width: int) -> None:
        """Append each value of an unsigned integer array using ``width`` bits.

        Values that do not fit in ``width`` bits are masked to their low bits;
        callers are responsible for choosing an adequate width.
        """
        if width < 0:
            raise ValueError(f"bit width must be non-negative, got {width}")
        values = np.asarray(values, dtype=np.uint64).ravel()
        if width == 0 or values.size == 0:
            return
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits = ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        self._parts.append(bits.ravel())
        self._bit_count += values.size * width

    def getvalue(self) -> bytes:
        """Render all written bits as bytes (zero-padded to a byte boundary)."""
        if not self._parts:
            return b""
        chunks: List[np.ndarray] = []
        pending: List[Tuple[int, int]] = []
        for part in self._parts:
            if isinstance(part, tuple):
                pending.append(part)
                continue
            if pending:
                chunks.append(_expand_scalar_writes(pending))
                pending = []
            chunks.append(part)
        if pending:
            chunks.append(_expand_scalar_writes(pending))
        return np.packbits(np.concatenate(chunks)).tobytes()


class BitReader:
    """Sequential reader over a byte string produced by :class:`BitWriter`."""

    def __init__(self, data: bytes, bit_count: int | None = None) -> None:
        self._bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        if bit_count is not None:
            if bit_count > self._bits.size:
                raise CorruptPayloadError(
                    f"bitstream declares {bit_count} bits but only {self._bits.size} are present"
                )
            self._bits = self._bits[:bit_count]
        self._position = 0

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return self._bits.size - self._position

    def read_bit(self) -> int:
        """Read one bit."""
        if self._position >= self._bits.size:
            raise CorruptPayloadError("attempted to read past the end of the bitstream")
        bit = int(self._bits[self._position])
        self._position += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer (MSB first)."""
        if width == 0:
            return 0
        if self._position + width > self._bits.size:
            raise CorruptPayloadError("attempted to read past the end of the bitstream")
        chunk = self._bits[self._position : self._position + width]
        self._position += width
        # Pack the chunk back to bytes and let Python's big-int constructor do
        # the bit folding; packbits zero-pads the final byte on the LSB side.
        return int.from_bytes(np.packbits(chunk).tobytes(), "big") >> ((-width) % 8)

    def read_bit_array(self, count: int) -> np.ndarray:
        """Read ``count`` raw bits as a uint8 array."""
        if self._position + count > self._bits.size:
            raise CorruptPayloadError("attempted to read past the end of the bitstream")
        chunk = self._bits[self._position : self._position + count]
        self._position += count
        return chunk.copy()

    def read_fixed_width(self, count: int, width: int) -> np.ndarray:
        """Read ``count`` unsigned integers of ``width`` bits each (vectorised)."""
        if width == 0:
            return np.zeros(count, dtype=np.uint64)
        total = count * width
        if self._position + total > self._bits.size:
            raise CorruptPayloadError("attempted to read past the end of the bitstream")
        chunk = self._bits[self._position : self._position + total]
        self._position += total
        bits = chunk.reshape(count, width).astype(np.uint64)
        weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64))
        return bits @ weights


def pack_bit_flags(flags: Iterable[bool]) -> bytes:
    """Pack a sequence of booleans into bytes (MSB-first within each byte)."""
    if not isinstance(flags, (np.ndarray, list, tuple)):
        flags = list(flags)
    array = (np.asarray(flags) != 0).astype(np.uint8)
    return np.packbits(array).tobytes()


def unpack_bit_flags(payload: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bit_flags`, returning a boolean array of ``count``."""
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    if bits.size < count:
        raise CorruptPayloadError(
            f"bit-flag payload holds {bits.size} bits, expected at least {count}"
        )
    return bits[:count].astype(bool)
