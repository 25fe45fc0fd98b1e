"""Inflate zlib streams of a declared size, and take CRC-32s, through libdeflate.

Every DEFLATE stream the codecs decode whose inflated size the payload declares
(the entropy bodies of :mod:`repro.compression.entropy`, the blosc-lz body of
:mod:`repro.compression.lossless`) goes through :func:`inflate`, and every
CRC-32 of the framing (checkpoint frames, the FedSZ payload fingerprint)
through :func:`crc32`.  Both call the system's libdeflate (``libdeflate.so.0``,
Debian's ``libdeflate0``) through :mod:`ctypes`; where that library does not
load, the same rules run on the stdlib's zlib.  Which path runs is decided by
whether the library loads, and by nothing else (:func:`backend` names it).

Writers stay on zlib, and a conforming inflater's output is fixed by the
stream, so no payload or reconstructed byte depends on the path.

The rules, the same on both paths:

* a declared size beyond DEFLATE's 1032:1 ceiling (a 258-byte match costs at
  least two bits) is rejected before a byte is inflated;
* the stream is inflated into a buffer of exactly the declared size, so a bomb
  costs its declared size and no more;
* a stream that holds more than the declared size is "longer", one that ends
  (or is cut off) short of it "truncated", one that does not decode
  "corrupt", and bytes after the end of the stream are rejected too.

Every failure is :class:`~repro.compression.errors.CorruptPayloadError`.  When
libdeflate rejects a stream, the zlib walk words the error (it is bounded the
same way), so a message never depends on which library loaded.

Measured on a 2-vCPU host, libdeflate 1.14 against zlib 1.2.13, best of 5,
entropy bodies of uniform random codes: 4,096 int8 codes 11 vs 17 µs, 221k
int8 codes 0.42 vs 0.89 ms, 2.36M int8 codes 4.5 vs 9.3 ms, 2.36M int16 codes
as byte planes 4.7 vs 9.5 ms; a CRC-32 of 6.5 MB 0.23 vs 1.08 ms.  libdeflate
was faster at every size, so there is no size threshold.  The inflate call
releases the GIL, and each call allocates and frees its own decompressor
(0.3 µs): codec lanes are short-lived threads, so a decompressor kept per
thread would leak.
"""

from __future__ import annotations

import ctypes
import zlib

import numpy as np

from repro.compression.errors import CorruptPayloadError

#: No DEFLATE stream inflates by more than this factor, so a larger declared
#: size is forged.
_MAX_INFLATE_RATIO = 1032

_LIBDEFLATE_SUCCESS = 0


def _load_libdeflate():
    """The libdeflate library with the calls used here typed, or ``None``.

    Loaded by soname: ``ctypes.util.find_library`` would spawn ``ldconfig``.
    """
    try:
        library = ctypes.CDLL("libdeflate.so.0")
        alloc = library.libdeflate_alloc_decompressor
        decompress = library.libdeflate_zlib_decompress_ex
        free = library.libdeflate_free_decompressor
        checksum = library.libdeflate_crc32
    except (OSError, AttributeError):
        return None
    alloc.argtypes, alloc.restype = [], ctypes.c_void_p
    size_p = ctypes.POINTER(ctypes.c_size_t)
    decompress.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_void_p, ctypes.c_size_t, size_p, size_p,
    ]
    decompress.restype = ctypes.c_int
    free.argtypes, free.restype = [ctypes.c_void_p], None
    checksum.argtypes = [ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t]
    checksum.restype = ctypes.c_uint32
    return library


_libdeflate = _load_libdeflate()


def backend() -> str:
    """``"libdeflate"`` or ``"zlib"``: which library :func:`inflate` and :func:`crc32` use."""
    return "zlib" if _libdeflate is None else "libdeflate"


def crc32(data) -> int:
    """CRC-32 of a bytes-like object, equal to ``zlib.crc32(data)``."""
    if _libdeflate is None:
        return zlib.crc32(data)
    view = np.frombuffer(data, dtype=np.uint8)
    return _libdeflate.libdeflate_crc32(0, view.ctypes.data, view.size)


def inflate(body, nbytes: int, what: str) -> np.ndarray:
    """The ``nbytes`` bytes the zlib stream ``body`` holds, as a uint8 array.

    ``body`` is any bytes-like object and must be exactly one zlib stream of
    exactly ``nbytes`` inflated bytes; ``what`` names the payload in the
    errors.  The array may be read-only.
    """
    if nbytes > len(body) * _MAX_INFLATE_RATIO:
        raise CorruptPayloadError(
            f"{what} declares {nbytes} bytes, more than {len(body)} deflated bytes can hold"
        )
    if _libdeflate is None:
        return _inflate_with_zlib(body, nbytes, what)
    # ctypes hands C a bytes object's own buffer, and the output through
    # from_buffer: numpy's .ctypes lookup costs ~1 µs a pointer, a tenth of a
    # 4 KB stream's inflate.  One spare byte, as from_buffer needs one.
    source = body if type(body) is bytes else bytes(body)
    buffer = np.empty(nbytes + 1, dtype=np.uint8)
    consumed = ctypes.c_size_t()
    decompressor = _libdeflate.libdeflate_alloc_decompressor()
    if not decompressor:
        raise MemoryError("libdeflate could not allocate a decompressor")
    try:
        result = _libdeflate.libdeflate_zlib_decompress_ex(
            decompressor, source, len(source),
            ctypes.byref(ctypes.c_char.from_buffer(buffer)), nbytes, ctypes.byref(consumed), None,
        )
    finally:
        _libdeflate.libdeflate_free_decompressor(decompressor)
    if result == _LIBDEFLATE_SUCCESS and consumed.value == len(source):
        return buffer[:nbytes]
    del buffer  # the walk below allocates its own declared size
    _inflate_with_zlib(body, nbytes, what)  # raises with the zlib path's wording
    raise CorruptPayloadError(f"{what} is corrupt")


def _inflate_with_zlib(body, nbytes: int, what: str) -> np.ndarray:
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(body, nbytes + 1)
    except zlib.error as error:
        raise CorruptPayloadError(f"{what} is corrupt") from error
    if len(raw) != nbytes or not inflater.eof:
        raise CorruptPayloadError(
            f"{what} declared {nbytes} bytes but its body is "
            + ("longer" if len(raw) > nbytes else "truncated")
        )
    if inflater.unused_data:
        raise CorruptPayloadError(
            f"{what} has {len(inflater.unused_data)} bytes after the end of its zlib stream"
        )
    return np.frombuffer(raw, dtype=np.uint8)
