"""Lossless codecs used for the metadata / non-weight partition.

The FedSZ paper compares blosc-lz, gzip, xz, zlib and zstd (Table II) and
selects blosc-lz for the lossless path because it is by far the fastest while
achieving a ratio comparable to the much slower xz.

Offline substitutions:

* ``gzip``, ``zlib`` and ``xz`` wrap the genuine stdlib implementations.
* ``blosc-lz`` is not installable offline; the stand-in reproduces its two key
  ingredients — a byte *shuffle* filter over the float stream followed by a
  fast LZ pass (DEFLATE at level 1) — which preserves the property the paper
  relies on: the fastest codec in the suite with a competitive ratio.  Its
  header declares the original length, so its body is inflated through
  :func:`repro.compression.inflate.inflate` (libdeflate where it loads, zlib
  otherwise) into a buffer of exactly that length: a forged body costs its
  declared length, never what it would inflate to.
* ``zstd`` is likewise unavailable; the stand-in is DEFLATE at a mid level,
  preserving Zstandard's position in Table II (slower than blosc-lz, ratio in
  the same band as gzip/zlib).
* The ``zlib``, ``gzip``, ``zstd`` and ``xz`` payloads declare no size, so
  they decode through the stdlib, and without a bound on what they inflate to.

All codecs implement :class:`~repro.compression.base.LosslessCompressor` and
produce self-describing payloads that round-trip exactly.  Decoding fails
closed: an empty, truncated or corrupt stream is
:class:`~repro.compression.errors.CorruptPayloadError`, whatever the backend
raised (see :func:`_inflate`).
"""

from __future__ import annotations

import gzip
import lzma
import struct
import zlib
from typing import Callable

import numpy as np

from repro.compression.base import LosslessCompressor
from repro.compression.errors import CorruptPayloadError
from repro.compression.inflate import inflate

_SHUFFLE_MAGIC = b"BLSC"
_SHUFFLE_HEADER = struct.Struct("<4sBQ")


#: What the stdlib backends raise on a stream they cannot decode.
_BACKEND_ERRORS = (zlib.error, lzma.LZMAError, EOFError, gzip.BadGzipFile)


def _inflate(name: str, decode: Callable[[bytes], bytes], payload: bytes) -> bytes:
    """``decode(payload)``, with every backend failure a :class:`CorruptPayloadError`.

    No codec here writes an empty stream, so an empty payload is corrupt too
    (gzip alone would decode it to ``b""``).
    """
    if not payload:
        raise CorruptPayloadError(f"{name} payload is empty")
    try:
        return decode(payload)
    except _BACKEND_ERRORS as error:
        raise CorruptPayloadError(f"{name} payload is corrupt: {error}") from error


def byte_shuffle(data: bytes, itemsize: int) -> bytes:
    """Blosc-style shuffle: group the i-th byte of every item together.

    Shuffling float32 streams clusters exponent bytes, which compress much
    better under a fast LZ pass.  Trailing bytes that do not form a full item
    are left unshuffled at the end.
    """
    if itemsize <= 1 or len(data) < itemsize:
        return data
    usable = (len(data) // itemsize) * itemsize
    head = np.frombuffer(data[:usable], dtype=np.uint8).reshape(-1, itemsize)
    return head.T.tobytes() + data[usable:]


def byte_unshuffle(data, itemsize: int, original_length: int) -> bytes:
    """Inverse of :func:`byte_shuffle`; ``data`` is any bytes-like object."""
    if itemsize <= 1 or original_length < itemsize:
        return bytes(data)
    usable = (original_length // itemsize) * itemsize
    head = np.frombuffer(data, dtype=np.uint8, count=usable).reshape(itemsize, -1)
    return head.T.tobytes() + bytes(data[usable:])


class BloscLZCompressor(LosslessCompressor):
    """Byte-shuffle + fast LZ stand-in for blosc-lz."""

    name = "blosc-lz"

    def __init__(self, itemsize: int = 4, level: int = 1) -> None:
        if itemsize < 1:
            raise ValueError(f"itemsize must be >= 1, got {itemsize}")
        self.itemsize = int(itemsize)
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        shuffled = byte_shuffle(data, self.itemsize)
        body = zlib.compress(shuffled, self.level)
        header = _SHUFFLE_HEADER.pack(_SHUFFLE_MAGIC, self.itemsize, len(data))
        return header + body

    def decompress(self, payload: bytes) -> bytes:
        if len(payload) < _SHUFFLE_HEADER.size:
            raise CorruptPayloadError("blosc-lz payload too short")
        magic, itemsize, original_length = _SHUFFLE_HEADER.unpack_from(payload, 0)
        if magic != _SHUFFLE_MAGIC:
            raise CorruptPayloadError(f"bad blosc-lz payload magic {magic!r}")
        if itemsize != self.itemsize:
            raise CorruptPayloadError(
                f"blosc-lz payload shuffled {itemsize}-byte items, this codec {self.itemsize}-byte"
            )
        shuffled = inflate(payload[_SHUFFLE_HEADER.size :], original_length, "blosc-lz payload")
        return byte_unshuffle(shuffled, itemsize, original_length)


class ZstdCompressor(LosslessCompressor):
    """Zstandard stand-in (DEFLATE at a mid compression level)."""

    name = "zstd"

    def __init__(self, level: int = 6) -> None:
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, payload: bytes) -> bytes:
        return _inflate(self.name, zlib.decompress, payload)


class ZlibCompressor(LosslessCompressor):
    """Genuine zlib (DEFLATE with zlib framing)."""

    name = "zlib"

    def __init__(self, level: int = 9) -> None:
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, payload: bytes) -> bytes:
        return _inflate(self.name, zlib.decompress, payload)


class GzipCompressor(LosslessCompressor):
    """Genuine gzip (DEFLATE with gzip framing)."""

    name = "gzip"

    def __init__(self, level: int = 9) -> None:
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return gzip.compress(data, compresslevel=self.level)

    def decompress(self, payload: bytes) -> bytes:
        return _inflate(self.name, gzip.decompress, payload)


class XzCompressor(LosslessCompressor):
    """Genuine xz / LZMA."""

    name = "xz"

    def __init__(self, preset: int = 6) -> None:
        self.preset = int(preset)

    def compress(self, data: bytes) -> bytes:
        return lzma.compress(data, preset=self.preset)

    def decompress(self, payload: bytes) -> bytes:
        return _inflate(self.name, lzma.decompress, payload)
