"""Tests for the lossless codecs and their paper-relevant ordering."""

from __future__ import annotations

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    evaluate_lossless,
    get_lossless_compressor,
    inflate,
)
from repro.compression.errors import CorruptPayloadError
from repro.compression.lossless import (
    BloscLZCompressor,
    GzipCompressor,
    XzCompressor,
    ZlibCompressor,
    ZstdCompressor,
    byte_shuffle,
    byte_unshuffle,
)
from repro.core import FedSZCompressor
from repro.core.serializer import build_fedsz_payload, parse_fedsz_payload
from repro.nn.models import create_model

ALL_CODECS = [BloscLZCompressor, GzipCompressor, XzCompressor, ZlibCompressor, ZstdCompressor]


@pytest.fixture(params=ALL_CODECS, ids=lambda cls: cls.name)
def codec(request):
    return request.param()


@pytest.fixture
def metadata_bytes(rng) -> bytes:
    """Float32 metadata-like payload (BatchNorm statistics, biases...)."""
    running_means = rng.normal(0.0, 1.0, 4000).astype(np.float32)
    running_vars = np.abs(rng.normal(1.0, 0.2, 4000)).astype(np.float32)
    counters = np.arange(4000, dtype=np.int64)
    return running_means.tobytes() + running_vars.tobytes() + counters.tobytes()


def test_roundtrip_exact(codec, metadata_bytes):
    restored = codec.decompress(codec.compress(metadata_bytes))
    assert restored == metadata_bytes


def test_roundtrip_empty(codec):
    assert codec.decompress(codec.compress(b"")) == b""


def test_roundtrip_small_odd_length(codec):
    data = b"\x01\x02\x03"
    assert codec.decompress(codec.compress(data)) == data


def test_compresses_structured_metadata(codec, metadata_bytes):
    evaluation = evaluate_lossless(codec, metadata_bytes)
    assert evaluation.ratio > 1.0


def test_registry_lookup_matches_names():
    for name in ("blosc-lz", "zstd", "zlib", "gzip", "xz"):
        assert get_lossless_compressor(name).name == name


def test_blosc_is_fastest_in_suite(metadata_bytes):
    """Table II: blosc-lz has by far the lowest runtime of the suite."""
    timings = {}
    payload = metadata_bytes * 8  # larger input for more stable timing
    for cls in ALL_CODECS:
        timings[cls.name] = evaluate_lossless(cls(), payload).compress_seconds
    assert timings["blosc-lz"] < timings["xz"]
    assert timings["blosc-lz"] < timings["gzip"]


def test_byte_shuffle_roundtrip(rng):
    data = rng.normal(0, 1, 1000).astype(np.float32).tobytes() + b"tail"
    shuffled = byte_shuffle(data, 4)
    assert byte_unshuffle(shuffled, 4, len(data)) == data
    assert shuffled != data


def test_byte_shuffle_noop_for_itemsize_one():
    data = b"hello world"
    assert byte_shuffle(data, 1) == data


def test_byte_shuffle_improves_float_compressibility(rng):
    data = rng.normal(0, 1e-3, 50_000).astype(np.float32).tobytes()
    plain = len(zlib.compress(data, 1))
    shuffled = len(zlib.compress(byte_shuffle(data, 4), 1))
    assert shuffled < plain


def test_blosc_rejects_corrupt_header(metadata_bytes, inflate_backend):
    payload = BloscLZCompressor().compress(metadata_bytes)
    with pytest.raises(CorruptPayloadError):
        BloscLZCompressor().decompress(b"XXXX" + payload[4:])


@pytest.mark.parametrize("itemsize", [1, 2, 4, 8])
def test_blosc_roundtrips_on_both_inflate_paths(itemsize, metadata_bytes, inflate_backend):
    codec = BloscLZCompressor(itemsize=itemsize)
    for data in (metadata_bytes, metadata_bytes[:-3], b"", b"\x01\x02\x03"):
        restored = codec.decompress(codec.compress(data))
        assert type(restored) is bytes and restored == data


def _forge_blosc(payload: bytes, length=None, body=None) -> bytes:
    header = bytearray(payload[:13])
    if length is not None:
        header[5:13] = length.to_bytes(8, "little")
    return bytes(header) + (payload[13:] if body is None else body)


def _hostile_blosc(data: bytes) -> dict:
    payload = BloscLZCompressor().compress(data)
    return {
        "length one too many": _forge_blosc(payload, length=len(data) + 1),
        "length one too few": _forge_blosc(payload, length=len(data) - 1),
        "length beyond the deflate ceiling": _forge_blosc(
            payload, length=(len(payload) - 13) * 1032 + 1
        ),
        "truncated body": payload[:-7],
        "bytes after the stream": payload + b"trailing",
        "garbage body": _forge_blosc(payload, body=bytes(range(256)) * 4),
        "zip bomb": _forge_blosc(payload, body=zlib.compress(bytes(50_000_000))),
    }


#: What each failure says, whichever inflate path ran.
BLOSC_WORDING = {
    "length one too many": "body is truncated",
    "length one too few": "body is longer",
    "length beyond the deflate ceiling": "deflated bytes can hold",
    "truncated body": "body is truncated",
    "bytes after the stream": "8 bytes after the end of its zlib stream",
    "garbage body": "blosc-lz payload is corrupt",
    "zip bomb": "body is longer",
}


def test_blosc_hostile_bodies_fail_closed_in_bounded_memory(metadata_bytes, inflate_backend):
    hostile = _hostile_blosc(metadata_bytes)
    tracemalloc.start()
    try:
        for what, blob in hostile.items():
            with pytest.raises(CorruptPayloadError, match=BLOSC_WORDING[what]):
                BloscLZCompressor().decompress(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The bomb inflates to 50 MB; the declared size is 64 KB.
    assert peak < 2_000_000


def test_both_inflate_paths_word_every_blosc_failure_alike(metadata_bytes, monkeypatch):
    if inflate.backend() != "libdeflate":
        pytest.skip("libdeflate.so.0 does not load on this host")
    hostile = _hostile_blosc(metadata_bytes)

    def messages() -> dict:
        said = {}
        for what, blob in hostile.items():
            with pytest.raises(CorruptPayloadError) as caught:
                BloscLZCompressor().decompress(blob)
            said[what] = str(caught.value)
        return said

    fast = messages()
    monkeypatch.setattr(inflate, "_libdeflate", None)
    assert messages() == fast


def test_blosc_bomb_inside_a_fedsz_payload_is_bounded(inflate_backend):
    """A valid AlexNet-tiny payload whose lossless section keeps its blosc
    header over a body that inflates to 200 MB: it used to be inflated whole
    (a 450 MB peak) before its length was compared."""
    codec = FedSZCompressor()
    payload = codec.compress(create_model("alexnet", "tiny", seed=0).state_dict())
    header, lossy, lossless = parse_fedsz_payload(payload)
    forged = build_fedsz_payload(header, lossy, lossless[:13] + zlib.compress(bytes(200_000_000), 9))
    declared = int.from_bytes(lossless[5:13], "little")
    tracemalloc.start()
    try:
        codec.decompress(payload)
        genuine = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(CorruptPayloadError, match="blosc-lz payload declared .* longer"):
            codec.decompress(forged)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < genuine + declared + 2 * len(forged)


def test_blosc_rejects_bad_itemsize():
    with pytest.raises(ValueError):
        BloscLZCompressor(itemsize=0)


@settings(max_examples=30, deadline=None)
@given(data=st.binary(min_size=0, max_size=4096), codec_cls=st.sampled_from(ALL_CODECS))
def test_roundtrip_property(data, codec_cls):
    codec = codec_cls()
    assert codec.decompress(codec.compress(data)) == data
