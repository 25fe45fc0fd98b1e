"""Entropy coding of quantization indices.

The real SZ2/SZ3 pipelines entropy-code their quantization indices with a
Huffman stage followed by Zstandard.  This reproduction has no Zstandard
dependency, so one coder stands in for both: zlib's run-length + Huffman DEFLATE over the byte
planes of the narrowest integer width that can represent the indices.

Payload format
--------------
Every payload is ``<B backend> <Q count> <B dtype code>`` followed by a zlib
stream, so the decoder needs no configuration.  The header declares the
inflated size, so the body is inflated through
:func:`repro.compression.inflate.inflate` (libdeflate where it loads, zlib
otherwise) into a buffer of exactly that size, and a body that holds more,
less, or anything after its stream fails closed.  The dtype code names the
little-endian signed width (0/1/2/3 = int8/16/32/64).  Two backend codes are
read:

====  ==========  ==========================================================
code  name        inflated body
====  ==========  ==========================================================
0     deflate     the indices in their narrow dtype, element after element.
                  Written for int8 streams; every payload written before
                  byte planes existed carries it too, at any width.
2     planes      ``itemsize`` byte planes of the narrow dtype: byte 0 (the
                  low byte) of every index, then byte 1 of every index, ...
                  Written for int16/int32/int64 streams.
====  ==========  ==========================================================

Planes put the near-constant high bytes of small residuals next to each other
(runs) and leave the low bytes as one stationary symbol source, which is what
a Huffman coder wants; for int8 the plane layout *is* the element layout, so
those streams keep code 0 and stay readable by older decoders.

Code 1 was an opt-in canonical-Huffman body that no default configuration
ever wrote.  It is rejected as an unknown backend, like any other code, before
a byte of its body is inflated.

Why there is no second coder
----------------------------
A canonical Huffman coder followed by DEFLATE (code 1) was measured against
this one on ResNet18-paper's 21 lossy tensors (44.7 MB, seed 11), one
``SZ2Compressor`` call per tensor, best of 3, two runs, 2 vCPUs:

=========  ========================  =====================  ===================
REL bound  ratio deflate -> huffman  compress MB/s          decompress MB/s
                                     deflate / huffman      deflate / huffman
=========  ========================  =====================  ===================
1e-1       16.82 -> 20.23 (+20.3%)   25.5-30.1 / 37.0-41.3  381-404 / 24.8-27.2
1e-2       6.813 -> 6.825 (+0.2%)    113-136 / 22.3-23.4    322-384 / 3.0-3.7
1e-3       3.398 -> 3.993 (+17.5%)   72-87 / 11.6-12.8      182-210 / 1.8-1.9
=========  ========================  =====================  ===================

Both decompress columns were taken when decode inflated with zlib 1.2.13;
libdeflate roughly halves the deflate side's inflate time (see
:mod:`repro.compression.inflate`), which only widens the gap.

The bar for a second coder was at least 3% more ratio at no less than half
the speed.  At the paper's operating point, REL 1e-2, Huffman bought 0.2% and
decoded about 100x slower; at 1e-1 and 1e-3 it bought 17-20% but decoded 15x
and 100x slower.  That +17-20% is what a faster Huffman decoder would have to
beat to come back.

Selection rule
--------------
Quantization codes of model weights are noise: LZ77 finds no real matches in
them, the search is the slowest step of the whole codec, and the spurious
matches it does emit cost ~10% ratio by polluting the literal statistics.  So
the body is deflated with ``Z_RLE`` (distance-1 matches only, then Huffman).
Run-length coding collapses on smooth inputs whose codes repeat with a period
longer than one, so when the fast pass lands under
:data:`_MATCH_SEARCH_BELOW_BITS` bits per input byte — the data is highly
structured, and such bodies are tiny and cheap to redo — the body is deflated
again with the default strategy at the configured ``level`` and the smaller of
the two is kept.  Both are plain zlib streams; the decoder cannot tell and
need not.  What the rule gives up: a structured stream that stays above the
threshold is not retried and can come out up to a third larger than level 6
made it (1.34x on a noisy two-tone sine at REL 1e-3, the worst case pinned in
``tests/compression/test_entropy_selection.py``).

Measured on a 2-vCPU host with zlib 1.2.13 (4M codes from ``SZ2Compressor``
at REL 1e-2 for int8 and 1e-4 / 1e-5 for int16; ``weights`` is normal(0, 0.02),
``smooth`` a two-tone sine; size in bits per input byte, best-of-3 seconds):

=================  ===============  ===============  ===============
input              level 6          Z_RLE            Z_HUFFMAN_ONLY
=================  ===============  ===============  ===============
weights  int8      4.88   0.155 s   4.38   0.036 s   4.38   0.033 s
weights  int16 *   5.75   0.635 s   5.53   0.066 s   5.52   0.058 s
smooth   int8      0.039  0.013 s   0.066  0.007 s   1.01   0.028 s
smooth   int16 *   0.123  0.049 s   0.331  0.020 s   1.05   0.057 s
=================  ===============  ===============  ===============

``*`` as byte planes; level 6 over interleaved int16 (the old layout) is 6.48
bits at 0.327 s on weights and 0.111 bits at 0.036 s on smooth.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.compression.errors import CorruptPayloadError
from repro.compression.inflate import inflate

_BACKEND_DEFLATE = 0
_BACKEND_PLANES = 2

_HEADER = struct.Struct("<BQB")

_DTYPE_BY_CODE = {
    0: np.dtype("<i1"),
    1: np.dtype("<i2"),
    2: np.dtype("<i4"),
    3: np.dtype("<i8"),
}
_CODE_BY_ITEMSIZE = {1: 0, 2: 1, 4: 2, 8: 3}

#: The run-length pass emitting fewer bits than this per input byte marks a
#: highly structured stream, on which the LZ77 match search is also tried.
_MATCH_SEARCH_BELOW_BITS = 2.0

def _narrowest_signed_dtype(values: np.ndarray) -> np.dtype:
    """Smallest signed integer dtype that can hold every value exactly."""
    if values.size == 0:
        return _DTYPE_BY_CODE[0]
    lowest = int(values.min())
    highest = int(values.max())
    for code, bits in ((0, 7), (1, 15), (2, 31)):
        if -(1 << bits) <= lowest and highest < 1 << bits:
            return _DTYPE_BY_CODE[code]
    return _DTYPE_BY_CODE[3]


def _deflate(raw: np.ndarray, level: int) -> bytes:
    """zlib stream of ``raw`` under the selection rule of the module docstring."""
    coder = zlib.compressobj(level, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    body = coder.compress(raw) + coder.flush()
    if len(body) * 8 < _MATCH_SEARCH_BELOW_BITS * raw.nbytes:
        searched = zlib.compress(raw, level)
        if len(searched) < len(body):
            return searched
    return body


def encode_indices(indices: np.ndarray, level: int = 6) -> bytes:
    """Entropy-code an integer index array into a self-describing payload."""
    indices = np.asarray(indices).ravel()
    dtype = _narrowest_signed_dtype(indices)
    narrow = np.ascontiguousarray(indices, dtype=dtype)
    if dtype.itemsize == 1:
        backend_code, raw = _BACKEND_DEFLATE, narrow
    else:
        backend_code = _BACKEND_PLANES
        raw = np.ascontiguousarray(narrow.view(np.uint8).reshape(-1, dtype.itemsize).T)
    header = _HEADER.pack(backend_code, indices.size, _CODE_BY_ITEMSIZE[dtype.itemsize])
    return header + _deflate(raw, level)


def decode_indices(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_indices`.

    The indices come back in the signed dtype they were stored in (the
    narrowest that holds them), not widened: consumers convert them once, to
    whatever they accumulate in.  The array may be read-only.
    """
    if len(payload) < _HEADER.size:
        raise CorruptPayloadError("entropy payload too short")
    backend, count, dtype_code = _HEADER.unpack_from(payload, 0)
    if backend not in (_BACKEND_DEFLATE, _BACKEND_PLANES):
        raise CorruptPayloadError(f"unknown entropy backend code {backend}")
    if dtype_code not in _DTYPE_BY_CODE:
        raise CorruptPayloadError(f"unknown entropy dtype code {dtype_code}")
    dtype = _DTYPE_BY_CODE[dtype_code]
    raw = inflate(payload[_HEADER.size :], count * dtype.itemsize, "entropy payload")
    if backend == _BACKEND_DEFLATE:
        return raw.view(dtype)
    planes = raw.reshape(dtype.itemsize, count)
    values = np.empty(count, dtype=dtype)
    interleaved = values.view(np.uint8).reshape(count, dtype.itemsize)
    for position, plane in enumerate(planes):  # a transposed copy is 5x slower
        interleaved[:, position] = plane
    return values
