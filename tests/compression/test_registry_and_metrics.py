"""Tests for the compressor registry and the measurement helpers."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.compression import (
    ErrorBoundMode,
    SZ2Compressor,
    available_lossless_compressors,
    available_lossy_compressors,
    compression_ratio,
    evaluate_lossless,
    evaluate_lossy,
    get_lossless_compressor,
    get_lossy_compressor,
    max_abs_error,
    mean_squared_error,
    psnr,
    register_lossless,
    register_lossy,
)
from repro.compression.base import (
    CompressionStats,
    append_section,
    begin_sections,
    pack_array,
    pack_sections,
    resolve_error_bound,
    unpack_array,
    unpack_sections,
)
from repro.compression.errors import CorruptPayloadError, UnknownCompressorError
from repro.compression.lossless import ZlibCompressor
from repro.compression.stages import unpack_stage_meta
from repro.core import FedSZCompressor
from repro.core.pipeline import decompress_state_dict
from repro.core.serializer import (
    build_fedsz_payload,
    deserialize_named_arrays,
    parse_fedsz_payload,
    serialize_named_arrays,
)


def test_builtin_registrations_present():
    assert set(available_lossy_compressors()) >= {"sz2", "sz3", "szx", "zfp"}
    assert set(available_lossless_compressors()) >= {"blosc-lz", "zstd", "zlib", "gzip", "xz"}


def test_unknown_names_raise():
    with pytest.raises(UnknownCompressorError):
        get_lossy_compressor("definitely-not-a-compressor")
    with pytest.raises(UnknownCompressorError):
        get_lossless_compressor("definitely-not-a-compressor")


def test_lookup_is_case_insensitive():
    assert get_lossy_compressor("SZ2").name == "sz2"


def test_custom_registration_roundtrip():
    register_lossy("sz2-custom", lambda: SZ2Compressor(block_size=64))
    assert get_lossy_compressor("sz2-custom").block_size == 64
    register_lossless("zlib-fast", lambda: ZlibCompressor(level=1))
    assert get_lossless_compressor("zlib-fast").level == 1


def test_compression_ratio_and_edge_cases():
    assert compression_ratio(100, 10) == 10.0
    assert compression_ratio(100, 0) == float("inf")


def test_error_metrics(rng):
    original = rng.normal(0, 1, 1000)
    noisy = original + 0.01
    assert max_abs_error(original, noisy) == pytest.approx(0.01)
    assert mean_squared_error(original, noisy) == pytest.approx(1e-4)
    assert psnr(original, original) == float("inf")
    assert psnr(original, noisy) > 20


def test_evaluate_lossy_populates_all_fields(spiky_weights):
    evaluation = evaluate_lossy(SZ2Compressor(), spiky_weights, 1e-2, ErrorBoundMode.REL)
    assert evaluation.compressor == "sz2"
    assert evaluation.ratio > 1.0
    assert evaluation.compress_seconds > 0
    assert evaluation.decompress_seconds > 0
    assert evaluation.max_abs_error <= 1e-2 * (spiky_weights.max() - spiky_weights.min()) * 1.001
    row = evaluation.as_row()
    assert {"compressor", "ratio", "throughput_mb_s"} <= set(row)


def test_evaluate_lossless_checks_roundtrip(rng):
    data = rng.integers(0, 255, 10_000, dtype=np.uint8).tobytes()
    evaluation = evaluate_lossless(ZlibCompressor(), data)
    assert evaluation.original_nbytes == len(data)
    assert evaluation.compress_throughput_mbps > 0


def test_compression_stats_properties():
    stats = CompressionStats(original_nbytes=1000, compressed_nbytes=100, compress_seconds=0.001)
    assert stats.ratio == 10.0
    assert stats.compress_throughput_mbps == pytest.approx(1.0)


def test_pack_sections_roundtrip():
    sections = {"meta": b"\x01\x02", "codes": b"payload", "empty": b""}
    assert unpack_sections(pack_sections(sections)) == sections


def test_pack_sections_corrupt_magic():
    payload = pack_sections({"a": b"b"})
    with pytest.raises(CorruptPayloadError):
        unpack_sections(b"ZZZZ" + payload[4:])


def _doubled(name: str, first: bytes, second: bytes) -> bytes:
    """A section stream that declares ``name`` twice."""
    buffer = bytearray()
    begin_sections(buffer, 2)
    append_section(buffer, name, first)
    append_section(buffer, name, second)
    return bytes(buffer)


def test_unpack_sections_rejects_trailing_bytes_and_repeated_names():
    payload = pack_sections({"a": b"b", "c": b""})
    with pytest.raises(CorruptPayloadError, match="after the last"):
        unpack_sections(payload + b"xyz")
    with pytest.raises(CorruptPayloadError, match="after the last"):
        unpack_sections(pack_sections({}) + b"\x00")
    with pytest.raises(CorruptPayloadError, match="twice"):
        unpack_sections(_doubled("a", b"1", b"2"))
    # The first b"a" is the first section's name; 0xFF is never UTF-8.
    with pytest.raises(CorruptPayloadError, match="section 0 name .* not UTF-8"):
        unpack_sections(payload.replace(b"a", b"\xff", 1))


@pytest.fixture()
def small_state(rng):
    return {
        "conv.weight": rng.normal(size=(16, 8, 3, 3)).astype(np.float32),
        "conv.bias": rng.normal(size=(16,)).astype(np.float32),
        "bn.num_batches_tracked": np.array(3, dtype=np.int64),
    }


def test_fedsz_payload_with_trailing_bytes_fails_closed(small_state):
    codec = FedSZCompressor(error_bound=1e-2)
    payload = codec.compress(small_state)
    assert codec.decompress(payload).keys() == small_state.keys()
    with pytest.raises(CorruptPayloadError):
        codec.decompress(payload + b"xyz")


def test_fedsz_payload_with_a_flipped_lossless_byte_fails_closed(small_state):
    codec = FedSZCompressor(error_bound=1e-2)
    payload = bytearray(codec.compress(small_state))
    _, _, lossless_blob = parse_fedsz_payload(bytes(payload))
    payload[payload.rindex(lossless_blob) + len(lossless_blob) // 2] ^= 0xFF
    with pytest.raises(CorruptPayloadError, match="blosc-lz payload is corrupt"):
        codec.decompress(bytes(payload))


def test_fedsz_payload_with_a_repeated_lossless_tensor_fails_closed(small_state):
    """A forged lossless partition that names one tensor twice used to decode
    to one tensor fewer than it declared."""
    header, lossy, lossless_blob = parse_fedsz_payload(FedSZCompressor().compress(small_state))
    lossless = get_lossless_compressor(header["lossless_compressor"])
    arrays = deserialize_named_arrays(lossless.decompress(lossless_blob))
    name = next(iter(arrays))
    forged = _doubled(name, pack_array(arrays[name]), pack_array(arrays[name]))
    payload = build_fedsz_payload(header, lossy, lossless.compress(forged))
    with pytest.raises(CorruptPayloadError, match="twice"):
        decompress_state_dict(payload)


@pytest.mark.parametrize("name", sorted(available_lossy_compressors()))
def test_staged_payload_with_trailing_bytes_fails_closed(name, rng):
    codec = get_lossy_compressor(name)
    data = rng.normal(size=(64, 64)).astype(np.float32)
    payload = codec.compress(data, 1e-2)
    assert codec.decompress(payload).shape == data.shape
    with pytest.raises(CorruptPayloadError):
        codec.decompress(payload + b"\x00")


def test_named_array_blob_fails_closed_on_trailing_bytes_and_repeated_names(small_state):
    blob = serialize_named_arrays(small_state)
    assert deserialize_named_arrays(blob).keys() == small_state.keys()
    with pytest.raises(CorruptPayloadError):
        deserialize_named_arrays(blob + b"xyz")
    section = pack_array(small_state["conv.bias"])
    with pytest.raises(CorruptPayloadError):
        deserialize_named_arrays(_doubled("conv.bias", section, section))


def test_pack_array_roundtrip_various_dtypes(rng):
    for dtype in (np.float32, np.float64, np.int64, np.uint8):
        array = rng.integers(0, 100, size=(3, 5)).astype(dtype)
        restored = unpack_array(pack_array(array))
        np.testing.assert_array_equal(restored, array)
        assert restored.dtype == array.dtype


def test_pack_array_scalar_and_empty():
    np.testing.assert_array_equal(unpack_array(pack_array(np.float32(3.5))), np.float32(3.5))
    assert unpack_array(pack_array(np.zeros(0, dtype=np.float32))).size == 0


def test_unpack_array_size_mismatch_detected():
    payload = pack_array(np.arange(10, dtype=np.float32))
    with pytest.raises(CorruptPayloadError):
        unpack_array(payload[:-4])


def _forged_array(dtype: bytes = b"<f4", shape=(1,), data: bytes = bytes(4)) -> bytes:
    header = struct.pack("<H", len(dtype)) + dtype + struct.pack("<B", len(shape))
    return header + struct.pack(f"<{len(shape)}q", *shape) + data


@pytest.mark.parametrize(
    "payload",
    [
        _forged_array(shape=(2**32, 2**32), data=b""),  # np.prod wrapped this to 0 elements
        _forged_array(shape=(-1, -1)),  # reshape took one -1 as "whatever fits"
        _forged_array(shape=(-1,)),
        _forged_array(dtype=b"|O8", data=bytes(8)),
        _forged_array(dtype=b"zzz"),
        _forged_array(dtype=b"\xff\xfe"),
        _forged_array(dtype=b"<c8", data=bytes(8)),
        _forged_array(dtype=b"|S4"),
        _forged_array(dtype=b",f4"),  # numpy's parser raised SyntaxError
        _forged_array(shape=(1,) * 100),  # more dimensions than an array can have
        pack_array(np.zeros((2, 3), dtype=np.float32))[:9],  # cut inside the shape
        pack_array(np.zeros((2, 3), dtype=np.float32))[:3],  # cut inside the dtype name
        b"\x03",
        b"",
    ],
    ids=[
        "count-wraps", "two-unknown-dims", "negative-dim", "object", "no-such-dtype", "not-ascii",
        "complex", "bytes", "comma", "100-dims", "cut-in-shape", "cut-in-dtype", "one-byte", "empty",
    ],
)
def test_unpack_array_answers_hostile_bytes_with_corrupt_payload_error(payload):
    with pytest.raises(CorruptPayloadError):
        unpack_array(payload)


def test_unpack_array_damage_sweep_never_escapes_untyped(rng):
    """Every truncation and 400 seeded bit flips of a packed array end in
    ``CorruptPayloadError`` or in an array, never in another exception."""
    array = rng.normal(size=(3, 5)).astype(np.float32)
    payload = pack_array(array)
    damaged = [payload[:cut] for cut in range(len(payload))]
    for position in rng.integers(0, 8 * len(payload), 400):
        flipped = bytearray(payload)
        flipped[position // 8] ^= 1 << (position % 8)
        damaged.append(bytes(flipped))
    intact = 0
    for blob in damaged:
        try:
            restored = unpack_array(blob)
        except CorruptPayloadError:
            continue
        # Flips inside the data (or to another dtype of the same width) decode.
        assert restored.nbytes == array.nbytes
        intact += 1
    assert 0 < intact < len(damaged)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_rel_bound_is_the_one_of_the_float64_copy(dtype, rng):
    """The extremes are subtracted as Python floats, so the bound a float16/32
    tensor resolves to is the one the codec enforces — and writes into the
    payload — whichever dtype it is asked in (float32 used to differ on about
    half of such tensors, in the last digits)."""
    for _ in range(200):
        data = rng.normal(0.0, 0.02, 5000).astype(dtype)
        bound = resolve_error_bound(data, 1e-2, ErrorBoundMode.REL)
        assert bound == resolve_error_bound(data.astype(np.float64), 1e-2, ErrorBoundMode.REL)
        assert bound == 1e-2 * (float(data.max()) - float(data.min()))
    meta = unpack_sections(SZ2Compressor().compress(data, 1e-2))["meta"]
    assert unpack_stage_meta(meta, "sz2").absolute_bound == bound
    # A range that overflows the tensor's own dtype is finite in float64.
    wide = np.array([-np.finfo(dtype).max, np.finfo(dtype).max], dtype=dtype)
    if dtype != np.float64:
        assert resolve_error_bound(wide, 1e-2, ErrorBoundMode.REL) == 2e-2 * float(wide[1])


def test_abs_mode_and_non_finite_extremes_resolve_as_before():
    data = np.array([1.0, np.nan, -3.0, np.inf, 2.0], dtype=np.float32)
    assert resolve_error_bound(data, 0.25, ErrorBoundMode.ABS) == 0.25
    assert resolve_error_bound(data, 0.25, ErrorBoundMode.REL) == 0.25 * 5.0  # finite values only
    nothing_finite = np.array([np.nan, np.inf], dtype=np.float32)
    assert resolve_error_bound(nothing_finite, 0.25, ErrorBoundMode.REL) == 0.25
    assert resolve_error_bound(np.zeros(0, np.float32), 0.25, ErrorBoundMode.REL) == 0.25
