"""Tests for the FedSZ pipeline, serializer and public compressor API."""

from __future__ import annotations

import time
from collections.abc import Mapping

import numpy as np
import pytest

from repro.compression.base import ErrorBoundMode
from repro.compression.errors import CorruptPayloadError
from repro.core import (
    FedSZCompressor,
    FedSZConfig,
    IdentityCodec,
    compress_state_dict,
    decompress_state_dict,
    deserialize_named_arrays,
    serialize_named_arrays,
)
from repro.core.serializer import build_fedsz_payload, parse_fedsz_payload
from repro.nn.models import create_model


@pytest.fixture(scope="module")
def tiny_state():
    return create_model("alexnet", "tiny", num_classes=10, seed=3).state_dict()


@pytest.fixture(scope="module")
def mobilenet_state():
    return create_model("mobilenetv2", "tiny", num_classes=10, seed=3).state_dict()


# ----------------------------------------------------------------------
# Serializer
# ----------------------------------------------------------------------
def test_named_array_serialization_roundtrip(tiny_state):
    payload = serialize_named_arrays(tiny_state)
    restored = deserialize_named_arrays(payload)
    assert set(restored) == set(tiny_state)
    for name in tiny_state:
        np.testing.assert_array_equal(restored[name], tiny_state[name])
        assert restored[name].dtype == tiny_state[name].dtype


def test_fedsz_payload_framing_roundtrip():
    header = {"lossy_compressor": "sz2", "error_bound": 1e-2}
    payload = build_fedsz_payload(header, {"a.weight": b"\x01\x02"}, b"lossless-bytes")
    parsed_header, lossy, lossless = parse_fedsz_payload(payload)
    assert parsed_header["lossy_compressor"] == "sz2"
    assert parsed_header["format_version"] == 1
    assert lossy == {"a.weight": b"\x01\x02"}
    assert lossless == b"lossless-bytes"


def test_fedsz_payload_rejects_missing_sections():
    with pytest.raises(CorruptPayloadError):
        parse_fedsz_payload(serialize_named_arrays({"x": np.zeros(3)}))


def test_fedsz_payload_rejects_corrupt_header():
    payload = build_fedsz_payload({"x": 1}, {}, b"")
    with pytest.raises(CorruptPayloadError):
        parse_fedsz_payload(payload[: len(payload) // 2])


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
def test_pipeline_roundtrip_preserves_keys_shapes_dtypes(tiny_state):
    config = FedSZConfig(error_bound=1e-2)
    payload, report = compress_state_dict(tiny_state, config)
    restored = decompress_state_dict(payload, config)
    assert set(restored) == set(tiny_state)
    for name, tensor in tiny_state.items():
        assert restored[name].shape == tensor.shape
        assert restored[name].dtype == tensor.dtype
    assert report.ratio > 1.0


def test_pipeline_respects_relative_error_bound(tiny_state):
    config = FedSZConfig(error_bound=1e-2)
    restored = decompress_state_dict(compress_state_dict(tiny_state, config)[0], config)
    for name, tensor in tiny_state.items():
        if "weight" in name and tensor.size > config.partition_threshold:
            value_range = float(tensor.max() - tensor.min())
            max_error = float(np.max(np.abs(restored[name] - tensor)))
            assert max_error <= 1e-2 * value_range * 1.01 + 1e-7, name
        else:
            np.testing.assert_array_equal(restored[name], tensor)


def test_pipeline_lossless_partition_is_bit_exact(mobilenet_state):
    config = FedSZConfig(error_bound=1e-1)
    restored = decompress_state_dict(compress_state_dict(mobilenet_state, config)[0], config)
    for name, tensor in mobilenet_state.items():
        if "running_" in name or "num_batches" in name or "bias" in name:
            np.testing.assert_array_equal(restored[name], tensor)


def test_pipeline_report_accounting(tiny_state):
    payload, report = compress_state_dict(tiny_state, FedSZConfig())
    assert report.compressed_nbytes == len(payload)
    assert report.original_nbytes == sum(v.nbytes for v in tiny_state.values())
    assert report.lossy_tensor_count + report.lossless_tensor_count == len(tiny_state)
    assert report.lossy_original_nbytes + report.lossless_original_nbytes == report.original_nbytes
    assert set(report.per_tensor_ratio) == {
        name
        for name, value in tiny_state.items()
        if "weight" in name and value.size > 1024
    }
    row = report.as_row()
    assert row["ratio"] == pytest.approx(report.ratio)


def test_larger_error_bound_gives_smaller_payload(tiny_state):
    loose, _ = compress_state_dict(tiny_state, FedSZConfig(error_bound=1e-1))
    tight, _ = compress_state_dict(tiny_state, FedSZConfig(error_bound=1e-4))
    assert len(loose) < len(tight)


@pytest.mark.parametrize("compressor", ["sz2", "sz3", "szx", "zfp"])
def test_pipeline_works_with_every_eblc(tiny_state, compressor):
    config = FedSZConfig(error_bound=1e-2, lossy_compressor=compressor)
    payload, report = compress_state_dict(tiny_state, config)
    restored = decompress_state_dict(payload, config)
    assert set(restored) == set(tiny_state)
    assert report.ratio > 1.0


@pytest.mark.parametrize("lossless", ["blosc-lz", "zstd", "gzip", "zlib", "xz"])
def test_pipeline_works_with_every_lossless_codec(mobilenet_state, lossless):
    config = FedSZConfig(error_bound=1e-2, lossless_compressor=lossless)
    restored = decompress_state_dict(compress_state_dict(mobilenet_state, config)[0], config)
    for name, tensor in mobilenet_state.items():
        if "running_" in name:
            np.testing.assert_array_equal(restored[name], tensor)


def test_pipeline_absolute_bound_mode(tiny_state):
    config = FedSZConfig(error_bound=1e-3, error_bound_mode=ErrorBoundMode.ABS)
    restored = decompress_state_dict(compress_state_dict(tiny_state, config)[0], config)
    for name, tensor in tiny_state.items():
        if "weight" in name and tensor.size > config.partition_threshold:
            assert float(np.max(np.abs(restored[name] - tensor))) <= 1e-3 * 1.01 + 1e-7


def test_config_validation():
    with pytest.raises(ValueError):
        FedSZConfig(error_bound=0.0)
    with pytest.raises(ValueError):
        FedSZConfig(partition_threshold=-1)
    assert "sz2" in FedSZConfig().describe()


@pytest.mark.parametrize("bound", [float("nan"), float("inf")])
def test_config_rejects_a_non_finite_error_bound(bound):
    with pytest.raises(ValueError, match="error_bound must be positive and finite"):
        FedSZConfig(error_bound=bound)


@pytest.mark.parametrize(
    "field, name",
    [
        ("lossy_compressor", "sz9"),
        ("lossy_compressor", None),
        ("lossless_compressor", "lzma-ish"),
        ("lossless_compressor", 3),
    ],
)
def test_config_rejects_an_unknown_codec_name(field, name):
    """An unregistered codec used to construct and fail at the first compress."""
    with pytest.raises(ValueError, match=field):
        FedSZConfig(**{field: name})


def test_config_accepts_registered_codec_names_in_any_case():
    config = FedSZConfig(lossy_compressor="SZ3", lossless_compressor="Blosc-LZ")
    assert config.lossy_compressor == "SZ3"


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def test_fedsz_compressor_end_to_end(tiny_state):
    codec = FedSZCompressor(error_bound=1e-2)
    payload = codec.compress(tiny_state)
    restored = codec.decompress(payload)
    assert set(restored) == set(tiny_state)
    report = codec.report()
    assert report.ratio > 1.5
    assert codec.last_report is report


def test_fedsz_compressor_report_before_use_raises():
    with pytest.raises(RuntimeError):
        FedSZCompressor().report()


def test_fedsz_compressor_worthwhile_decision(tiny_state):
    codec = FedSZCompressor(error_bound=1e-2)
    codec.compress(tiny_state)
    slow_link = codec.is_worthwhile(bandwidth_mbps=1.0)
    assert slow_link.worthwhile


def test_fedsz_compression_errors_population(tiny_state):
    codec = FedSZCompressor(error_bound=1e-2)
    restored = codec.decompress(codec.compress(tiny_state))
    errors = codec.compression_errors(tiny_state, restored)
    assert errors.size > 1000
    assert np.abs(errors).max() > 0


def test_fedsz_from_config(tiny_state):
    config = FedSZConfig(error_bound=5e-3, lossy_compressor="sz3")
    codec = FedSZCompressor.from_config(config)
    assert codec.config is config
    codec.compress(tiny_state)
    assert codec.report().ratio > 1.0


def test_identity_codec_roundtrip(tiny_state):
    codec = IdentityCodec()
    payload = codec.compress(tiny_state)
    restored = codec.decompress(payload)
    for name in tiny_state:
        np.testing.assert_array_equal(restored[name], tiny_state[name])
    assert codec.last_report.ratio == pytest.approx(1.0, rel=0.05)


def test_lossy_options_applied_when_valid(tiny_state):
    payload, report = compress_state_dict(
        tiny_state, FedSZConfig(error_bound=1e-2, lossy_options={"block_size": 64})
    )
    assert report.ratio > 1.0
    restored = decompress_state_dict(payload)
    assert set(restored) == set(tiny_state)


def test_lossy_options_rejects_unknown_names(tiny_state):
    """A typo'd option must fail loudly instead of being setattr-ed onto the
    codec instance and silently ignored."""
    with pytest.raises(ValueError, match="blocksize"):
        compress_state_dict(
            tiny_state, FedSZConfig(error_bound=1e-2, lossy_options={"blocksize": 64})
        )
    with pytest.raises(ValueError, match="available options"):
        FedSZCompressor(lossy_options={"not_an_option": 1}).compress(tiny_state)


def test_the_removed_entropy_backend_option_is_rejected(tiny_state):
    """SZ2 has one entropy coder; the option that picked another is unknown."""
    with pytest.raises(ValueError, match="unknown option 'entropy_backend'"):
        compress_state_dict(
            tiny_state,
            FedSZConfig(error_bound=1e-2, lossy_options={"entropy_backend": "huffman"}),
        )


@pytest.mark.parametrize("lossy_compressor", ["sz3", "szx", "zfp"])
def test_no_codec_takes_an_entropy_backend_option(tiny_state, lossy_compressor):
    with pytest.raises(ValueError, match="unknown option 'entropy_backend'"):
        compress_state_dict(
            tiny_state,
            FedSZConfig(
                error_bound=1e-2,
                lossy_compressor=lossy_compressor,
                lossy_options={"entropy_backend": "deflate"},
            ),
        )


def test_codec_clone_is_independent(tiny_state):
    codec = FedSZCompressor(error_bound=1e-3, lossy_compressor="sz3")
    clone = codec.clone()
    assert clone is not codec
    assert clone.config == codec.config
    clone.compress(tiny_state)
    assert clone.last_report is not None
    assert codec.last_report is None  # the original's report is untouched
    identity = IdentityCodec()
    identity_clone = identity.clone()
    identity_clone.compress(tiny_state)
    assert identity.last_report is None


# ----------------------------------------------------------------------
# A received FedSZ header is outside input: forgeries fail closed
# ----------------------------------------------------------------------
def _mutable(value):
    """A plain dict/list copy of a read-only header from ``parse_fedsz_payload``."""
    if isinstance(value, Mapping):
        return {key: _mutable(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [_mutable(item) for item in value]
    return value


def _reframed(payload: bytes, edit) -> bytes:
    """``payload`` with a copy of its header passed through ``edit`` (in place)."""
    header, lossy_payloads, lossless_blob = parse_fedsz_payload(payload)
    header = _mutable(header)
    edit(header)
    return build_fedsz_payload(header, lossy_payloads, lossless_blob)


def _set(path, value):
    def edit(header):
        target = header
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


WEIGHT = "features.3.block.0.0.weight"  # (96, 24, 1, 1) float32 in ``mobilenet_state``

FORGED_HEADERS = {
    # What each did at the parent commit is in the comment.
    "shape-of-another-size": _set(["lossy_shapes", WEIGHT], [7, 7]),  # ValueError: cannot reshape
    "shape-negative": _set(["lossy_shapes", WEIGHT], [-1]),  # accepted
    "shape-a-string": _set(["lossy_shapes", WEIGHT], "12x12"),  # TypeError
    "shape-of-floats": _set(["lossy_shapes", WEIGHT], [2.5, 4]),  # TypeError
    "shapes-a-list": _set(["lossy_shapes"], [[4, 4]]),  # AttributeError
    "shapes-missing": lambda header: header.pop("lossy_shapes"),  # flat tensors came back
    "dtype-unparsable": _set(["lossy_dtypes", WEIGHT], ",f4"),  # SyntaxError
    "dtype-an-int-kind": _set(["lossy_dtypes", WEIGHT], "<i4"),  # weights silently cast to int32
    "dtype-another-float": _set(["lossy_dtypes", WEIGHT], "<f8"),  # silently widened
    "dtype-not-a-string": _set(["lossy_dtypes", WEIGHT], 4),  # TypeError
    "dtypes-a-list": _set(["lossy_dtypes"], ["<f4"]),  # AttributeError
    "lossy-codec-unknown": _set(["lossy_compressor"], "sz9"),  # UnknownCompressorError
    "lossy-codec-not-a-string": _set(["lossy_compressor"], 2),  # AttributeError
    "lossy-codec-missing": lambda header: header.pop("lossy_compressor"),  # KeyError
    "lossless-codec-unknown": _set(["lossless_compressor"], "rar"),  # UnknownCompressorError
}


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
@pytest.mark.parametrize("forgery", FORGED_HEADERS)
def test_forged_fedsz_header_is_a_corrupt_payload(mobilenet_state, forgery, parallel, monkeypatch):
    from repro.compression import SZ2Compressor

    if parallel:  # every group qualifies for the codec pool
        monkeypatch.setattr(SZ2Compressor, "pool_min_values", 1)
    config = FedSZConfig(max_codec_workers=2)
    payload, _ = compress_state_dict(mobilenet_state, config)
    header, _, _ = parse_fedsz_payload(payload)
    assert WEIGHT in header["lossy_shapes"]
    assert decompress_state_dict(_reframed(payload, lambda header: None), config).keys()
    with pytest.raises(CorruptPayloadError):
        decompress_state_dict(_reframed(payload, FORGED_HEADERS[forgery]), config)


def test_header_sizes_only_schedule_the_decode(mobilenet_state):
    """Shapes that lie about which tensors are small change the grouping the
    pipeline asks for, never what the codec walks together: that it cuts from
    each payload's own metadata, and the lie is caught once sizes are known."""
    payload, _ = compress_state_dict(mobilenet_state, FedSZConfig())
    header, _, _ = parse_fedsz_payload(payload)
    names = list(header["lossy_shapes"])

    def swap(header):
        shapes = header["lossy_shapes"]
        shapes[names[0]], shapes[names[-1]] = shapes[names[-1]], shapes[names[0]]

    assert header["lossy_shapes"][names[0]] != header["lossy_shapes"][names[-1]]
    with pytest.raises(CorruptPayloadError, match="describes"):
        decompress_state_dict(_reframed(payload, swap))


# ----------------------------------------------------------------------
# Report: a group's measured seconds are split over its members by bytes
# ----------------------------------------------------------------------
def test_group_seconds_are_split_over_the_members_by_nbytes(mobilenet_state):
    from repro.compression import SZ2Compressor
    from repro.core.partition import partition_state_dict

    config = FedSZConfig()
    payload, report = compress_state_dict(mobilenet_state, config)
    start = time.perf_counter()
    decompress_state_dict(payload, config, report=report)
    report.decompress_seconds = time.perf_counter() - start
    lossy = partition_state_dict(mobilenet_state, 1024).lossy
    runs = SZ2Compressor().group_slices([tensor.size for tensor in lossy.values()])
    assert any(run.stop - run.start > 1 for run in runs)  # the tiny model's tensors do group
    names = list(lossy)
    for seconds in (report.per_tensor_compress_seconds, report.per_tensor_decompress_seconds):
        assert list(seconds) == names  # one key per lossy tensor, in state-dict order
        for run in runs:
            group = names[run]
            rates = [seconds[name] / lossy[name].nbytes for name in group]
            assert rates == pytest.approx([rates[0]] * len(group))
    assert report.lossy_compress_seconds <= report.compress_seconds
    assert report.lossy_decompress_seconds <= report.decompress_seconds
