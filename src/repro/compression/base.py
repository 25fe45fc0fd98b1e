"""Common interfaces and payload framing for all compressors.

Two abstract interfaces are defined:

* :class:`LossyCompressor` — error-bounded lossy compressors (SZ2, SZ3, SZx,
  ZFP analogues).  ``compress`` takes a float array and an error bound and
  returns a self-describing byte payload; ``decompress`` reconstructs an array
  with the same shape/dtype whose element-wise deviation from the original is
  bounded by the requested error bound.
* :class:`LosslessCompressor` — byte-oriented lossless codecs (blosc-lz, zstd,
  gzip, zlib, xz stand-ins/wrappers).

A small section-based framing format (:func:`pack_sections` /
:func:`unpack_sections`) is shared by all payloads so every compressor byte
stream is self-describing and independently decodable.
"""

from __future__ import annotations

import copy
import math
import re
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compression.errors import (
    CorruptPayloadError,
    InvalidErrorBoundError,
    UnsupportedDataError,
)

_SECTION_MAGIC = b"RPRS"
_HEADER_STRUCT = struct.Struct("<4sI")
_ENTRY_STRUCT = struct.Struct("<HQ")
_ARRAY_DTYPE = re.compile(rb"[<>|=][biuf][0-9]+")


class ErrorBoundMode(str, Enum):
    """How the numeric error bound argument should be interpreted.

    * ``ABS`` — the bound is an absolute tolerance: ``|x - x̂| <= bound``.
    * ``REL`` — the bound is relative to the value range of the input:
      ``|x - x̂| <= bound * (max(x) - min(x))``.  This is the mode used
      throughout the FedSZ paper ("REL error bound").
    """

    ABS = "abs"
    REL = "rel"


def resolve_error_bound(
    data: np.ndarray, error_bound: float, mode: ErrorBoundMode
) -> float:
    """Convert a (bound, mode) pair into an absolute tolerance for ``data``.

    For ``REL`` mode the value range of ``data`` is used, matching SZ's
    ``REL`` semantics.  A constant array has zero range; in that case the
    resolved absolute bound is 0.0 and callers are expected to fall back to an
    exact representation (which is trivially cheap for constant data).
    """
    if not np.isfinite(error_bound) or error_bound <= 0:
        raise InvalidErrorBoundError(
            f"error bound must be a positive finite number, got {error_bound!r}"
        )
    if mode == ErrorBoundMode.ABS:
        return float(error_bound)
    if data.size == 0:
        return float(error_bound)
    lowest, highest = data.min(), data.max()
    if not (np.isfinite(lowest) and np.isfinite(highest)):
        # Only a tensor holding NaN/Inf has a non-finite extreme; the codecs
        # reject those beforehand, so the masked copy is paid by nobody else.
        finite = data[np.isfinite(data)]
        if finite.size == 0:
            return float(error_bound)
        lowest, highest = finite.min(), finite.max()
    # Python floats: float16/32 extremes widen exactly, so the bound is the one
    # the tensor's float64 copy resolves to, whatever dtype it arrives in.
    return float(error_bound * (float(highest) - float(lowest)))


def safe_throughput_mbps(nbytes: int, seconds: Optional[float]) -> float:
    """Throughput in MB/s that never raises on degenerate timings.

    Sub-microsecond codec calls can report an elapsed time of exactly zero
    (clock granularity) or a denormal float (min-of-N over already-tiny
    measurements); both map to ``inf`` — "too fast to measure" — instead of a
    ``ZeroDivisionError`` or an overflow warning escaping into a report.
    """
    if seconds is None or not seconds > 0.0 or not math.isfinite(seconds):
        return float("inf")
    throughput = nbytes / 1e6 / seconds
    if not math.isfinite(throughput):  # denormal elapsed overflows the division
        return float("inf")
    return throughput


@dataclass(frozen=True)
class CompressionStats:
    """Measurements describing one compression invocation."""

    original_nbytes: int
    compressed_nbytes: int
    compress_seconds: float
    decompress_seconds: Optional[float] = None
    max_abs_error: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Compression ratio (original size / compressed size)."""
        if self.compressed_nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.compressed_nbytes

    @property
    def compress_throughput_mbps(self) -> float:
        """Compression throughput in MB/s (10^6 bytes per second)."""
        return safe_throughput_mbps(self.original_nbytes, self.compress_seconds)

    @property
    def decompress_throughput_mbps(self) -> float:
        """Decompression throughput in MB/s of reconstructed data."""
        return safe_throughput_mbps(self.original_nbytes, self.decompress_seconds)


def validate_lossy_input(data: np.ndarray, codec: str = "lossy") -> np.ndarray:
    """Uniform input policy shared by every error-bounded lossy codec.

    The policy (identical for SZ2, SZ3, SZx, ZFP and any predictor-stage codec
    added through :mod:`repro.compression.stages`):

    * only floating-point dtypes are accepted — integer, boolean, complex and
      object arrays raise :class:`UnsupportedDataError`;
    * every value must be finite: ``NaN``, ``+Inf`` and ``-Inf`` all raise
      :class:`UnsupportedDataError`.  Error-bounded quantization of a
      non-finite value is undefined (``|x - x̂| <= ε`` cannot hold), and
      silently passing such values through would corrupt downstream model
      aggregation, so rejection is loud and happens before any bytes are
      produced;
    * empty arrays are allowed and round-trip to empty arrays.

    ``codec`` names the caller in the error message so pipeline-level failures
    point at the stage that rejected the tensor.
    """
    data = np.asarray(data)
    if data.dtype.kind not in "f":
        raise UnsupportedDataError(
            f"{codec}: lossy compressors expect floating-point data, got dtype {data.dtype}"
        )
    if not np.all(np.isfinite(data)):
        raise UnsupportedDataError(
            f"{codec}: lossy compressors require finite input values "
            "(NaN/+Inf/-Inf are rejected; see repro.compression.base.validate_lossy_input)"
        )
    return data


class LossyCompressor(ABC):
    """Interface implemented by every error-bounded lossy compressor."""

    #: Short registry name, e.g. ``"sz2"``.
    name: str = "lossy"

    #: Whether decompressed output strictly satisfies ``|x - x̂| <= ε``.
    #: ZFP's fixed-precision mode is the one analogue that does not.
    strictly_bounded: bool = True

    #: Values a group must hold to earn a lane of the pipeline's codec pool,
    #: as measured in ``core.pipeline.resolve_codec_workers`` (unmeasured: 2^20).
    pool_min_values: int = 1 << 20

    def clone(self) -> "LossyCompressor":
        """A fresh codec with the same configuration.

        Stage-based codecs keep all state in plain configuration attributes
        (stages themselves are stateless), so a shallow copy is a complete,
        O(1) clone.  Codecs carrying mutable state must override this.
        """
        return copy.copy(self)

    @abstractmethod
    def compress(
        self,
        data: np.ndarray,
        error_bound: float,
        mode: ErrorBoundMode = ErrorBoundMode.REL,
    ) -> bytes:
        """Compress a floating-point array into a self-describing payload."""

    @abstractmethod
    def decompress(self, payload: bytes) -> np.ndarray:
        """Reconstruct the array encoded in ``payload``."""

    def group_slices(self, sizes: Sequence[int]) -> List[slice]:
        """Cut consecutive tensors of these element counts into groups.

        Each slice is worth one :meth:`compress_group` / :meth:`decompress_group`
        call: a tensor alone, unless the codec saves work by coding small
        neighbours together.  A payload never depends on the grouping.
        """
        return [slice(index, index + 1) for index in range(len(sizes))]

    def compress_group(
        self,
        tensors: Sequence[np.ndarray],
        error_bound: float,
        mode: ErrorBoundMode = ErrorBoundMode.REL,
    ) -> List[bytes]:
        """:meth:`compress` of each tensor, in order."""
        return [self.compress(tensor, error_bound, mode) for tensor in tensors]

    def decompress_group(self, payloads: Sequence[bytes]) -> List[np.ndarray]:
        """:meth:`decompress` of each payload, in order."""
        return [self.decompress(payload) for payload in payloads]

    def roundtrip(
        self,
        data: np.ndarray,
        error_bound: float,
        mode: ErrorBoundMode = ErrorBoundMode.REL,
    ) -> Tuple[np.ndarray, CompressionStats]:
        """Compress then decompress, returning the reconstruction and stats."""
        import time

        data = np.asarray(data)
        start = time.perf_counter()
        payload = self.compress(data, error_bound, mode)
        compress_seconds = time.perf_counter() - start
        start = time.perf_counter()
        reconstructed = self.decompress(payload)
        decompress_seconds = time.perf_counter() - start
        max_abs_error = float(np.max(np.abs(data.astype(np.float64) - reconstructed)))
        stats = CompressionStats(
            original_nbytes=int(data.nbytes),
            compressed_nbytes=len(payload),
            compress_seconds=compress_seconds,
            decompress_seconds=decompress_seconds,
            max_abs_error=max_abs_error,
            metadata={"compressor": self.name, "error_bound": error_bound, "mode": mode.value},
        )
        return reconstructed, stats

    def _validate_input(self, data: np.ndarray) -> np.ndarray:
        """Apply the shared input policy (see :func:`validate_lossy_input`)."""
        return validate_lossy_input(data, codec=self.name)


class LosslessCompressor(ABC):
    """Interface implemented by byte-oriented lossless codecs."""

    #: Short registry name, e.g. ``"blosc-lz"``.
    name: str = "lossless"

    def clone(self) -> "LosslessCompressor":
        """A fresh codec with the same configuration (see LossyCompressor.clone)."""
        return copy.copy(self)

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress a byte string."""

    @abstractmethod
    def decompress(self, payload: bytes) -> bytes:
        """Exactly reconstruct the byte string encoded in ``payload``."""

    def roundtrip(self, data: bytes) -> Tuple[bytes, CompressionStats]:
        """Compress then decompress, returning the output bytes and stats."""
        import time

        start = time.perf_counter()
        payload = self.compress(data)
        compress_seconds = time.perf_counter() - start
        start = time.perf_counter()
        restored = self.decompress(payload)
        decompress_seconds = time.perf_counter() - start
        stats = CompressionStats(
            original_nbytes=len(data),
            compressed_nbytes=len(payload),
            compress_seconds=compress_seconds,
            decompress_seconds=decompress_seconds,
            metadata={"compressor": self.name},
        )
        return restored, stats


def begin_sections(buffer: bytearray, count: int) -> None:
    """Write the section-stream header (magic + section count) into ``buffer``."""
    buffer += _HEADER_STRUCT.pack(_SECTION_MAGIC, count)


def append_section_header(buffer: bytearray, name: str, data_nbytes: int) -> None:
    """Write one section's entry header + name, promising ``data_nbytes`` of data.

    The caller must append exactly ``data_nbytes`` bytes afterwards; this
    split lets composite payloads stream nested sections straight into the
    final buffer instead of materialising them as an intermediate blob first.
    """
    encoded_name = name.encode("utf-8")
    if len(encoded_name) > 0xFFFF:
        raise ValueError(f"section name too long: {name!r}")
    buffer += _ENTRY_STRUCT.pack(len(encoded_name), data_nbytes)
    buffer += encoded_name


def append_section(buffer: bytearray, name: str, data: bytes) -> None:
    """Write one complete named section (header + data) into ``buffer``."""
    append_section_header(buffer, name, len(data))
    buffer += data


def sections_nbytes(sizes: Mapping[str, int]) -> int:
    """Framed size of a section stream holding the given per-section data sizes."""
    total = _HEADER_STRUCT.size
    for name, size in sizes.items():
        total += _ENTRY_STRUCT.size + len(name.encode("utf-8")) + size
    return total


def pack_sections(sections: Mapping[str, bytes]) -> bytes:
    """Serialize named byte sections into a single framed payload.

    The format is: magic, section count, then for each section a
    (name-length, data-length) header followed by the UTF-8 name and the raw
    data.  Section order is preserved.
    """
    buffer = bytearray()
    begin_sections(buffer, len(sections))
    for name, data in sections.items():
        append_section(buffer, name, bytes(data))
    return bytes(buffer)


def unpack_sections(payload: bytes) -> Dict[str, bytes]:
    """Inverse of :func:`pack_sections`.

    Fails closed: a truncated stream, bytes after the last declared section,
    a section name that is not UTF-8 and one that repeats are all
    :class:`CorruptPayloadError` — a forged stream can neither smuggle
    trailing data past the decoder nor shadow one section with another of the
    same name.
    """
    if len(payload) < _HEADER_STRUCT.size:
        raise CorruptPayloadError("payload too short to contain a section header")
    magic, count = _HEADER_STRUCT.unpack_from(payload, 0)
    if magic != _SECTION_MAGIC:
        raise CorruptPayloadError(f"bad payload magic {magic!r}")
    offset = _HEADER_STRUCT.size
    sections: Dict[str, bytes] = {}
    for index in range(count):
        if offset + _ENTRY_STRUCT.size > len(payload):
            raise CorruptPayloadError("truncated section entry header")
        name_len, data_len = _ENTRY_STRUCT.unpack_from(payload, offset)
        offset += _ENTRY_STRUCT.size
        end_of_name = offset + name_len
        end_of_data = end_of_name + data_len
        if end_of_data > len(payload):
            raise CorruptPayloadError("truncated section data")
        raw_name = payload[offset:end_of_name]
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptPayloadError(
                f"section {index} name {raw_name!r} is not UTF-8"
            ) from None
        if name in sections:
            raise CorruptPayloadError(f"section {name!r} appears twice")
        sections[name] = payload[end_of_name:end_of_data]
        offset = end_of_data
    if offset != len(payload):
        raise CorruptPayloadError(
            f"{len(payload) - offset} bytes after the last of {count} sections"
        )
    return sections


def pack_array(array: np.ndarray) -> bytes:
    """Serialize a numpy array (dtype, shape and raw bytes) into one section."""
    array = np.asarray(array)
    dtype_name = array.dtype.str.encode("ascii")
    header = struct.pack(
        f"<H{len(dtype_name)}sB{array.ndim}q", len(dtype_name), dtype_name, array.ndim, *array.shape
    )
    return header + array.tobytes()  # C order, whatever the array's strides


def unpack_array(payload: bytes) -> np.ndarray:
    """Inverse of :func:`pack_array`; anything else is :class:`CorruptPayloadError`."""
    try:
        (dtype_len,) = struct.unpack_from("<H", payload, 0)
        offset = 2 + dtype_len
        # Only what ``dtype.str`` of a bool/int/uint/float array looks like
        # reaches numpy, whose dtype parser raises anything up to SyntaxError.
        if not _ARRAY_DTYPE.fullmatch(payload[2:offset]):
            raise ValueError(f"dtype {payload[2:offset]!r}")
        dtype = np.dtype(payload[2:offset].decode("ascii"))
        (ndim,) = struct.unpack_from("<B", payload, offset)
        shape = struct.unpack_from(f"<{ndim}q", payload, offset + 1)
        raw = payload[offset + 1 + 8 * ndim :]
        # Python ints: a forged shape cannot wrap the element count around.
        if min(shape, default=0) < 0 or len(raw) != math.prod(shape) * dtype.itemsize:
            raise ValueError(f"{len(raw)} bytes for shape {shape} of {dtype}")
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    except (struct.error, TypeError, ValueError) as error:
        raise CorruptPayloadError(f"corrupt array payload: {error}") from error
