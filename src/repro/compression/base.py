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
import functools
import math
import re
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
_DTYPE_LEN = struct.Struct("<H")


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
    data: np.ndarray,
    error_bound: float,
    mode: ErrorBoundMode,
    value_range: Optional[float] = None,
) -> float:
    """Convert a (bound, mode) pair into an absolute tolerance for ``data``.

    For ``REL`` mode the value range of ``data`` is used, matching SZ's
    ``REL`` semantics.  A constant array has zero range; in that case the
    resolved absolute bound is 0.0 and callers are expected to fall back to an
    exact representation (which is trivially cheap for constant data).
    ``value_range``, when given, is that range as :func:`validate_lossy_input`
    measured it, and ``data`` is not scanned again.
    """
    if not math.isfinite(error_bound) or error_bound <= 0:
        raise InvalidErrorBoundError(
            f"error bound must be a positive finite number, got {error_bound!r}"
        )
    if mode == ErrorBoundMode.ABS:
        return float(error_bound)
    if data.size == 0:
        return float(error_bound)
    if value_range is None:
        lowest, highest = data.min(), data.max()
        if not (np.isfinite(lowest) and np.isfinite(highest)):
            # Only a tensor holding NaN/Inf has a non-finite extreme; the codecs
            # reject those beforehand, so the masked copy is paid by nobody else.
            finite = data[np.isfinite(data)]
            if finite.size == 0:
                return float(error_bound)
            lowest, highest = finite.min(), finite.max()
        # Python floats: float16/32 extremes widen exactly, so the bound is the
        # one the tensor's float64 copy resolves to, whatever dtype it arrives in.
        value_range = float(highest) - float(lowest)
    return float(error_bound * value_range)


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


def validate_lossy_input(data: np.ndarray, codec: str = "lossy") -> Tuple[np.ndarray, float]:
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

    Returns the array and its value range, ``max - min`` as Python floats
    (0.0 when empty).  The check is that one scan for the two extremes:
    ``NaN`` propagates through ``min`` and ``max`` and ``±Inf`` is an extreme,
    so both are finite exactly when every value is, and the range is what a
    ``REL`` bound scales (:func:`resolve_error_bound` takes it and scans no
    more).

    ``codec`` names the caller in the error message so pipeline-level failures
    point at the stage that rejected the tensor.
    """
    data = np.asarray(data)
    if data.dtype.kind not in "f":
        raise UnsupportedDataError(
            f"{codec}: lossy compressors expect floating-point data, got dtype {data.dtype}"
        )
    if data.size == 0:
        return data, 0.0
    lowest = float(np.minimum.reduce(data, axis=None))
    highest = float(np.maximum.reduce(data, axis=None))
    if not (math.isfinite(lowest) and math.isfinite(highest)):
        raise UnsupportedDataError(
            f"{codec}: lossy compressors require finite input values "
            "(NaN/+Inf/-Inf are rejected; see repro.compression.base.validate_lossy_input)"
        )
    return data, highest - lowest


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
        ranges: Optional[List[float]] = None,
    ) -> List[bytes]:
        """:meth:`compress` of each tensor, in order.

        ``ranges``, when a list, receives each tensor's value range as
        :func:`validate_lossy_input` measures it, in order: what a caller
        resolving a bound over the same tensors needs, without a scan of its
        own.
        """
        if ranges is not None:
            ranges.extend(validate_lossy_input(tensor, self.name)[1] for tensor in tensors)
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
        return validate_lossy_input(data, codec=self.name)[0]


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


def _section_name(name: str) -> bytes:
    encoded_name = name.encode("utf-8")
    if len(encoded_name) > 0xFFFF:
        raise ValueError(f"section name too long: {name!r}")
    return encoded_name


def append_section_header(buffer: bytearray, name: str, data_nbytes: int) -> None:
    """Write one section's entry header + name, promising ``data_nbytes`` of data.

    The caller must append exactly ``data_nbytes`` bytes afterwards; this
    split lets composite payloads stream nested sections straight into the
    final buffer instead of materialising them as an intermediate blob first.
    """
    encoded_name = _section_name(name)
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


def pack_sections(
    sections: Mapping[str, object],
    write: Optional[Callable[[bytearray, object], None]] = None,
) -> bytes:
    """Serialize named byte sections into a single framed payload.

    The format is: magic, section count, then for each section a
    (name-length, data-length) header followed by the UTF-8 name and the raw
    data.  Section order is preserved.  ``write(buffer, value)``, when given,
    appends each section's data straight to the one output buffer (e.g.
    :func:`append_array`), so no section exists as a blob of its own; its
    length is filled into the entry header afterwards.
    """
    buffer = bytearray()
    begin_sections(buffer, len(sections))
    if write is None:
        for name, data in sections.items():
            append_section(buffer, name, data)
        return bytes(buffer)
    entry = _ENTRY_STRUCT
    for name, value in sections.items():
        encoded_name = _section_name(name)
        at = len(buffer)
        buffer += entry.pack(len(encoded_name), 0)
        buffer += encoded_name
        start = len(buffer)
        write(buffer, value)
        entry.pack_into(buffer, at, len(encoded_name), len(buffer) - start)
    return bytes(buffer)


def unpack_sections(
    payload, read: Optional[Callable[[object, int, int], object]] = None
) -> Dict[str, object]:
    """Inverse of :func:`pack_sections`: each section's bytes by name.

    ``read(payload, start, end)``, when given, turns the section at
    ``payload[start:end]`` into the value kept under its name, so the stream
    is walked once and no section is copied out on its way to ``read``.

    Fails closed: a truncated stream, bytes after the last declared section,
    a section name that is not UTF-8 and one that repeats are all
    :class:`CorruptPayloadError` — a forged stream can neither smuggle
    trailing data past the decoder nor shadow one section with another of the
    same name.
    """
    size = len(payload)
    if size < _HEADER_STRUCT.size:
        raise CorruptPayloadError("payload too short to contain a section header")
    magic, count = _HEADER_STRUCT.unpack_from(payload, 0)
    if magic != _SECTION_MAGIC:
        raise CorruptPayloadError(f"bad payload magic {magic!r}")
    entry = _ENTRY_STRUCT.unpack_from
    offset = _HEADER_STRUCT.size
    sections: Dict[str, object] = {}
    for index in range(count):
        if offset + _ENTRY_STRUCT.size > size:
            raise CorruptPayloadError("truncated section entry header")
        name_len, data_len = entry(payload, offset)
        offset += _ENTRY_STRUCT.size
        end_of_name = offset + name_len
        end_of_data = end_of_name + data_len
        if end_of_data > size:
            raise CorruptPayloadError("truncated section data")
        raw_name = payload[offset:end_of_name]
        try:
            name = str(raw_name, "utf-8")
        except UnicodeDecodeError:
            raise CorruptPayloadError(
                f"section {index} name {bytes(raw_name)!r} is not UTF-8"
            ) from None
        if name in sections:
            raise CorruptPayloadError(f"section {name!r} appears twice")
        sections[name] = (
            payload[end_of_name:end_of_data] if read is None
            else read(payload, end_of_name, end_of_data)
        )
        offset = end_of_data
    if offset != size:
        raise CorruptPayloadError(
            f"{size - offset} bytes after the last of {count} sections"
        )
    return sections


@functools.lru_cache(maxsize=64)
def _array_fields(dtype: np.dtype, ndim: int) -> Tuple[bytes, struct.Struct]:
    """An array section's dtype and rank fields, and the struct of its shape."""
    dtype_name = dtype.str.encode("ascii")
    fields = struct.pack(f"<H{len(dtype_name)}sB", len(dtype_name), dtype_name, ndim)
    return fields, struct.Struct(f"<{ndim}q")


@functools.lru_cache(maxsize=64)
def _read_array_fields(fields: bytes) -> Tuple[np.dtype, struct.Struct]:
    """An array section's dtype, and the struct of its shape, from the dtype
    name and rank byte ahead of the shape; anything else raises ``ValueError``.

    Only what ``dtype.str`` of a bool/int/uint/float array looks like reaches
    numpy, whose dtype parser raises anything up to SyntaxError.  Valid fields
    are cached (dtypes and structs are immutable); rejected ones are checked
    again each time they come.
    """
    if not _ARRAY_DTYPE.fullmatch(fields, 0, len(fields) - 1):
        raise ValueError(f"dtype {fields[:-1]!r}")
    return np.dtype(fields[:-1].decode("ascii")), struct.Struct(f"<{fields[-1]}q")


def append_array(buffer: bytearray, array: np.ndarray) -> None:
    """Write a numpy array (dtype, shape and raw bytes) to the end of ``buffer``."""
    array = np.asarray(array)
    fields, dims = _array_fields(array.dtype, array.ndim)
    buffer += fields
    buffer += dims.pack(*array.shape)
    buffer += array.tobytes()  # C order, whatever the array's strides


def pack_array(array: np.ndarray) -> bytes:
    """Serialize a numpy array (dtype, shape and raw bytes) into one section.

    The layout :func:`append_array` writes, joined in one copy of the data
    past its ``tobytes``.
    """
    array = np.asarray(array)
    fields, dims = _array_fields(array.dtype, array.ndim)
    return b"".join((fields, dims.pack(*array.shape), array.tobytes()))


def unpack_array(payload) -> np.ndarray:
    """Inverse of :func:`pack_array`; anything else is :class:`CorruptPayloadError`.

    ``payload`` may be any bytes-like object (a ``memoryview`` slice of a
    larger stream, say): the array is read from it in place and copied once,
    into an array of its own, whose raw bytes are ``payload``'s last
    ``nbytes``.
    """
    view = memoryview(payload)
    try:
        (dtype_len,) = _DTYPE_LEN.unpack_from(view, 0)
        offset = 3 + dtype_len
        dtype, dims = _read_array_fields(bytes(view[2:offset]))
        shape = dims.unpack_from(view, offset)
        offset += dims.size
        # Python ints: a forged shape cannot wrap the element count around.
        if (shape and min(shape) < 0) or view.nbytes - offset != math.prod(shape) * dtype.itemsize:
            raise ValueError(f"{view.nbytes - offset} bytes for shape {shape} of {dtype}")
        return np.ndarray(shape, dtype, view, offset).copy()
    except (struct.error, TypeError, ValueError) as error:
        raise CorruptPayloadError(f"corrupt array payload: {error}") from error
