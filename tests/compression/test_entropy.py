"""Tests for the entropy coder of quantization indices."""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import SZ2Compressor, SZ3Compressor, ZFPCompressor, inflate
from repro.compression.base import pack_sections, unpack_sections
from repro.compression.entropy import decode_indices, encode_indices
from repro.compression.errors import CorruptPayloadError


def test_roundtrip_small_alphabet(rng):
    indices = rng.choice([-2, -1, 0, 1, 2], size=10_000, p=[0.05, 0.2, 0.5, 0.2, 0.05])
    payload = encode_indices(indices)
    np.testing.assert_array_equal(decode_indices(payload), indices)


def test_roundtrip_wide_range(rng):
    indices = rng.integers(-(2**31), 2**31, size=2000)
    payload = encode_indices(indices)
    np.testing.assert_array_equal(decode_indices(payload), indices)


def test_roundtrip_empty():
    payload = encode_indices(np.array([], dtype=np.int64))
    assert decode_indices(payload).size == 0
    assert payload[0] == 0 and payload[9] == 0  # a plain int8 stream


def test_deflate_picks_narrow_dtype(rng):
    small = rng.integers(-100, 100, size=50_000)
    wide = rng.integers(-(2**40), 2**40, size=50_000)
    assert len(encode_indices(small)) < len(encode_indices(wide))


def test_skewed_indices_compress_well(rng):
    indices = rng.choice([0, 1, -1], size=100_000, p=[0.9, 0.05, 0.05])
    payload = encode_indices(indices)
    assert len(payload) < indices.size  # < 1 byte per symbol


def test_corrupt_payload_raises(rng):
    payload = encode_indices(rng.integers(-5, 5, size=100))
    with pytest.raises(CorruptPayloadError):
        decode_indices(payload[:5])


def test_truncated_body_detected(rng):
    indices = rng.integers(-5, 5, size=1000)
    payload = encode_indices(indices)
    # Corrupt the declared count so it no longer matches the body.
    tampered = payload[:1] + (2000).to_bytes(8, "little") + payload[9:]
    with pytest.raises(CorruptPayloadError):
        decode_indices(tampered)


# ----------------------------------------------------------------------
# Payload format: two backend codes, byte planes for multi-byte widths
# ----------------------------------------------------------------------
#: ``encode_indices`` of ``(np.arange(96) * 7919 % 23) - 11`` through the opt-in
#: ``huffman`` backend of the commit before byte planes existed (the golden
#: corpus, ``tests/golden/v3/``, keeps that commit's code-0 payloads, which
#: still decode).  Backend code 1 is no longer read.
RETIRED_HUFFMAN_PAYLOAD = (
    "01600000000000000000789c4b6080801d8c105a02488b03691620fefa1f0240ec3f486c66a81e"
    "109b0d89cd8ec4e640627322b1b990d8dc50362b107f839a0f627f4762ff4062ff4462ff4262ff"
    "4662ff4562ff4362ff47623320d9cb88c4664262b320b1617a18d5b78bcdb24cbe58b7b56cf2f9"
    "039e6f8f2eeb8bf812bf3676c9e70f42d585998ba7d98abf0ecfb4f9c332ef4e54c6d37ed75f57"
    "6ff9db33aa0300ed8475c8"
)


def test_the_retired_huffman_payload_fails_closed():
    with pytest.raises(CorruptPayloadError, match="unknown entropy backend code 1"):
        decode_indices(bytes.fromhex(RETIRED_HUFFMAN_PAYLOAD))


@pytest.mark.parametrize("itemsize", [1, 2, 4, 8])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_roundtrip_at_every_width(itemsize, count, rng, inflate_backend):
    limit = 2 ** (8 * itemsize - 1)
    indices = rng.integers(-limit, limit, size=count, dtype=np.int64)
    indices[:1] = limit - 1  # pin the width whatever the draw
    width = itemsize if count else 1  # no index at all is held as int8
    payload = encode_indices(indices)
    # int8 stays a plain code-0 stream (old decoders read it); wider is planes.
    assert payload[0] == (0 if width == 1 else 2)
    assert payload[9] == {1: 0, 2: 1, 4: 2, 8: 3}[width]
    decoded = decode_indices(payload)
    assert decoded.dtype.itemsize == width
    np.testing.assert_array_equal(decoded, indices)


def test_planes_body_is_low_bytes_then_high_bytes():
    indices = np.array([0x0102, -2, 0x7F00, 3], dtype=np.int64)
    body = zlib.decompress(encode_indices(indices)[10:])
    assert body == bytes([0x02, 0xFE, 0x00, 0x03]) + bytes([0x01, 0xFF, 0x7F, 0x00])


@pytest.mark.parametrize("scale", [1, 300], ids=["int8", "int16-planes"])
def test_run_dominated_stream_takes_the_match_search(scale):
    """Runs repeated with a long period: run-length coding alone lands well
    under 2 bits a byte, and the LZ77 pass the rule then adds is far smaller."""
    indices = np.tile(np.repeat(np.arange(-40, 40) * scale, 50), 25)
    payload = encode_indices(indices)
    narrow = indices.astype(np.int8 if scale == 1 else "<i2")
    planes = np.ascontiguousarray(narrow.view(np.uint8).reshape(indices.size, -1).T)
    run_length = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    run_length_only = run_length.compress(planes) + run_length.flush()
    assert len(run_length_only) * 8 < 2 * planes.nbytes  # the rule's trigger
    assert len(payload) - 10 < len(run_length_only) / 4
    np.testing.assert_array_equal(decode_indices(payload), indices)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_input_container_width_does_not_change_the_payload(dtype, rng):
    indices = rng.integers(-100, 100, size=5000)
    assert encode_indices(indices.astype(dtype)) == encode_indices(indices)


#: (value, dtype code of the narrowest signed width that holds it) on both
#: sides of every width boundary.
WIDTH_BOUNDARIES = [
    (127, 0), (-128, 0), (128, 1), (-129, 1),
    (32767, 1), (-32768, 1), (32768, 2), (-32769, 2),
    (2**31 - 1, 2), (-(2**31), 2), (2**31, 3), (-(2**31) - 1, 3),
]


@pytest.mark.parametrize(
    "value,dtype_code", WIDTH_BOUNDARIES, ids=[str(value) for value, _ in WIDTH_BOUNDARIES]
)
def test_narrowest_width_at_its_boundaries(value, dtype_code):
    indices = np.array([0, value, -1], dtype=np.int64)
    payload = encode_indices(indices)
    assert payload[9] == dtype_code
    assert payload[0] == (0 if dtype_code == 0 else 2)
    np.testing.assert_array_equal(decode_indices(payload), indices)


# ----------------------------------------------------------------------
# Fail closed, in bounded memory
# ----------------------------------------------------------------------
def _forge(payload: bytes, backend=None, count=None, body=None) -> bytes:
    header = bytearray(payload[:10])
    if backend is not None:
        header[0] = backend
    if count is not None:
        header[1:9] = count.to_bytes(8, "little")
    return bytes(header) + (payload[10:] if body is None else body)


def _hostile(width: str, rng) -> dict:
    indices = rng.integers(-5, 5, size=4000) * (1 if width == "int8" else 300)
    payload = encode_indices(indices)
    return {
        "forged count 2**60": _forge(payload, count=2**60),
        "count beyond the deflate ceiling": _forge(payload, count=(len(payload) - 10) * 1032 + 1),
        "count one too many": _forge(payload, count=indices.size + 1),
        "count one too few": _forge(payload, count=indices.size - 1),
        "truncated body": payload[:-7],
        "truncated checksum": payload[:-1],
        "bytes after the stream": payload + b"junkjunk",
        "garbage body": _forge(payload, body=bytes(range(256)) * 4),
        "bit flip": payload[:40] + bytes([payload[40] ^ 0x10]) + payload[41:],
        "zip bomb": _forge(payload, body=zlib.compress(bytes(50_000_000))),
        "unknown backend": _forge(payload, backend=7),
        "huffman garbage": _forge(payload, backend=1, body=b"\x00" * 64),
    }


#: What each failure says, whichever inflate path ran.
WORDING = {
    "count beyond the deflate ceiling": "deflated bytes can hold",
    "count one too many": "body is truncated",
    "count one too few": "body is longer",
    "truncated body": "body is truncated",
    "bytes after the stream": "8 bytes after the end of its zlib stream",
    "garbage body": "entropy payload is corrupt",
    "zip bomb": "body is longer",
}


@pytest.mark.parametrize("width", ["int8", "int16"])
def test_hostile_entropy_payloads_raise_the_typed_error(width, rng, inflate_backend):
    hostile = _hostile(width, rng)
    tracemalloc.start()
    try:
        for what, blob in hostile.items():
            try:
                decode_indices(blob)
            except CorruptPayloadError as error:  # zlib.error or MemoryError would escape
                assert WORDING.get(what, "") in str(error), (what, str(error))
                continue
            pytest.fail(f"{what}: decoded without an error")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The bomb inflates to 50 MB; nothing may be allocated past the declared
    # size of the stream (4000 or 8000 bytes) plus the payloads themselves.
    assert peak < 2_000_000


@pytest.mark.parametrize("width", ["int8", "int16"])
def test_both_inflate_paths_word_every_failure_alike(width, rng, monkeypatch):
    if inflate.backend() != "libdeflate":
        pytest.skip("libdeflate.so.0 does not load on this host")
    hostile = _hostile(width, rng)

    def messages() -> dict:
        said = {}
        for what, blob in hostile.items():
            with pytest.raises(CorruptPayloadError) as caught:
                decode_indices(blob)
            said[what] = str(caught.value)
        return said

    fast = messages()
    monkeypatch.setattr(inflate, "_libdeflate", None)
    assert messages() == fast


@pytest.mark.parametrize("backend", [1, 3, 127, 128, 255])
def test_backend_codes_but_0_and_2_fail_closed_before_inflating(backend, inflate_backend):
    bomb = zlib.compress(bytes(50_000_000))
    payload = struct.pack("<BQB", backend, 50_000_000, 0) + bomb
    tracemalloc.start()
    try:
        with pytest.raises(CorruptPayloadError, match=f"unknown entropy backend code {backend}$"):
            decode_indices(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(payload)  # the body is sliced once, never inflated


@pytest.mark.parametrize("dtype_code", [4, 127, 255])
def test_unknown_dtype_codes_fail_closed(dtype_code, rng):
    payload = bytearray(encode_indices(rng.integers(-5, 5, size=100)))
    payload[9] = dtype_code
    with pytest.raises(CorruptPayloadError, match=f"unknown entropy dtype code {dtype_code}"):
        decode_indices(bytes(payload))


ENTROPY_CODECS = {"sz2": SZ2Compressor, "sz3": SZ3Compressor, "zfp": ZFPCompressor}
BOUNDS = [1e-1, 1e-2, 1e-3, 1e-5]


def _codes_section(codec_name: str, bound: float) -> dict:
    data = np.random.default_rng(0).normal(0, 0.02, 10_000)
    return unpack_sections(ENTROPY_CODECS[codec_name]().compress(data, bound))


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("codec_name", sorted(ENTROPY_CODECS))
def test_codec_writers_emit_only_backend_codes_0_and_2(codec_name, bound):
    """No writer emits code 1: int8 index streams are code 0, wider are planes."""
    codes = _codes_section(codec_name, bound)["codes"]
    assert codes[0] == (0 if codes[9] == 0 else 2)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("codec_name", sorted(ENTROPY_CODECS))
def test_backend_code_1_in_a_codec_payload_fails_closed(codec_name, bound):
    sections = _codes_section(codec_name, bound)
    sections["codes"] = b"\x01" + sections["codes"][1:]
    with pytest.raises(CorruptPayloadError, match="unknown entropy backend code 1"):
        ENTROPY_CODECS[codec_name]().decompress(pack_sections(sections))


@pytest.fixture(scope="module")
def huffman_bomb() -> bytes:
    """A 261 KB code-1 payload whose body inflates to 256 MB of zeros.  The
    Huffman decoder this code once selected inflated it without a cap."""
    coder, chunk = zlib.compressobj(), bytes(1 << 20)
    body = b"".join(coder.compress(chunk) for _ in range(256)) + coder.flush()
    return struct.pack("<BQB", 1, 1 << 28, 0) + body


def _peak_while_rejected(decode, payload) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(CorruptPayloadError):
            decode(payload)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huffman_bomb_fails_closed_before_inflating(huffman_bomb, inflate_backend):
    assert len(huffman_bomb) < 270_000
    assert _peak_while_rejected(decode_indices, huffman_bomb) <= 4_000_000


def test_huffman_bomb_inside_an_sz2_payload_fails_closed(huffman_bomb, rng):
    sections = unpack_sections(SZ2Compressor().compress(rng.normal(0, 0.02, 10_000), 1e-2))
    sections["codes"] = huffman_bomb
    forged = pack_sections(sections)
    assert _peak_while_rejected(SZ2Compressor().decompress, forged) <= 4_000_000


@pytest.mark.parametrize("codec_name", ["sz3", "zfp"])
def test_huffman_bomb_inside_a_codec_payload_fails_closed(codec_name, huffman_bomb, rng):
    codec = ENTROPY_CODECS[codec_name]()
    sections = unpack_sections(codec.compress(rng.normal(0, 0.02, 10_000), 1e-2))
    sections["codes"] = huffman_bomb
    forged = pack_sections(sections)
    assert _peak_while_rejected(codec.decompress, forged) <= 4_000_000


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-(2**50), max_value=2**50), min_size=0, max_size=500),
)
def test_roundtrip_property(values):
    indices = np.array(values, dtype=np.int64)
    np.testing.assert_array_equal(decode_indices(encode_indices(indices)), indices)

