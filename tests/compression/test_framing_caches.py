"""What the framing parses once and reuses: named-array layouts, the FedSZ
header, stage metadata, and each lossy tensor's validation scan.

Each cache must give what a fresh parse gives, must never hand a caller an
object another decode shares mutably, and must not let a blob that differs in
a parsed byte ride on an earlier blob's parse.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.compression.base import (
    ErrorBoundMode,
    LossyCompressor,
    resolve_error_bound,
    validate_lossy_input,
)
from repro.compression.errors import CorruptPayloadError, UnsupportedDataError
from repro.compression.registry import get_lossy_compressor
from repro.compression.stages import StageContext, pack_stage_meta, unpack_stage_meta
from repro.core import FedSZCompressor, deserialize_named_arrays, serialize_named_arrays
from repro.core.serializer import parse_fedsz_payload


def _same(left: dict, right: dict) -> bool:
    return list(left) == list(right) and all(
        (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        for a, b in zip(left.values(), right.values(), strict=True)
    )


# ----------------------------------------------------------------------
# Named-array layouts
# ----------------------------------------------------------------------
def test_a_blob_of_a_known_layout_decodes_to_fresh_arrays():
    rng = np.random.default_rng(3)
    arrays = {"w": rng.normal(size=(4, 5)).astype(np.float32), "n": np.array(3, np.int64)}
    first = deserialize_named_arrays(serialize_named_arrays(arrays))
    arrays["w"] += 1.0  # same layout, other data
    second = deserialize_named_arrays(serialize_named_arrays(arrays))
    assert _same(second, arrays)
    assert not np.shares_memory(first["w"], second["w"])
    assert second["w"].flags.writeable and second["w"].flags.owndata


def test_a_blob_of_the_same_length_and_another_layout_is_parsed_afresh():
    rows = {"a.weight": np.arange(6, dtype=np.float32).reshape(2, 3)}
    columns = {"b.weight": np.arange(6, dtype=np.float32).reshape(3, 2)}
    widened = {"a.weight": np.arange(6, dtype=np.int32).reshape(2, 3)}
    blobs = [serialize_named_arrays(state) for state in (rows, columns, widened)]
    assert len({len(blob) for blob in blobs}) == 1
    for state, blob in zip((rows, columns, widened, rows), blobs + blobs[:1], strict=True):
        assert _same(deserialize_named_arrays(blob), state)


@pytest.mark.parametrize("where", ["name", "dtype", "shape", "count", "trailing"])
def test_a_forged_framing_byte_fails_closed_after_its_layout_was_seen(where):
    arrays = {"layer.weight": np.ones((2, 3), np.float32), "layer.bias": np.zeros(3, np.float32)}
    blob = serialize_named_arrays(arrays)
    assert _same(deserialize_named_arrays(blob), arrays)  # the layout is known now
    forged = bytearray(blob)
    if where == "name":
        forged[blob.index(b"layer.bias")] = 0xFF  # not UTF-8
    elif where == "dtype":
        forged[blob.index(b"<f4")] = ord("!")
    elif where == "shape":
        forged[blob.index(b"<f4") + 4] = 7  # the first dimension, 2 -> 7
    elif where == "count":
        forged[4] = 1  # one section declared, two present
    else:
        forged = forged[:-1] + b"\x00\x00"  # one byte longer
    with pytest.raises(CorruptPayloadError):
        deserialize_named_arrays(bytes(forged))


def test_lanes_sharing_the_layouts_each_decode_their_own_blob():
    """Codec lanes are threads: more of them than cores, switching every few
    microseconds, decode blobs of more lengths than the cache keeps and of
    one length in two layouts, and each must get exactly what it encoded."""
    states = [
        {f"t{size}": np.arange(size * rows, dtype=np.float32).reshape(rows, size)}
        for size in range(1, 21)
        for rows in (2, 3)
    ]
    blobs = [serialize_named_arrays(state) for state in states]
    mismatches = []

    def lane(seed: int) -> None:
        order = np.random.default_rng(seed).permutation(len(states) * 8) % len(states)
        for index in order:
            if not _same(deserialize_named_arrays(blobs[index]), states[index]):
                mismatches.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lanes = [threading.Thread(target=lane, args=(seed,)) for seed in range(6)]
        for thread in lanes:
            thread.start()
        for thread in lanes:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in lanes)
    assert mismatches == []


# ----------------------------------------------------------------------
# The FedSZ header
# ----------------------------------------------------------------------
def test_the_parsed_header_is_read_only_all_the_way_down():
    codec = FedSZCompressor()
    state = {"fc.weight": np.ones((40, 40), np.float32), "fc.bias": np.zeros(40, np.float32)}
    header, _, _ = parse_fedsz_payload(codec.compress(state))
    with pytest.raises(TypeError):
        header["lossy_compressor"] = "zfp"
    with pytest.raises(TypeError):
        header["lossy_shapes"]["fc.weight"] = (1,)
    assert header["lossy_shapes"]["fc.weight"] == (40, 40)
    assert _same(codec.decompress(codec.compress(state)), state)  # a cached header decodes


def test_a_header_that_is_not_a_json_object_fails_closed():
    from repro.core.serializer import _parse_header

    with pytest.raises(CorruptPayloadError, match="not a JSON object"):
        _parse_header(b"[1, 2]")


# ----------------------------------------------------------------------
# Stage metadata
# ----------------------------------------------------------------------
def _ctx(**params) -> StageContext:
    return StageContext(size=4, shape=(2, 2), dtype=np.dtype("<f4"), params=params)


def test_each_decoded_context_gets_its_own_params():
    meta = pack_stage_meta(_ctx(block_size=16, offset=0.0))
    first = unpack_stage_meta(meta, "sz2")
    first.params["block_size"] = 99
    del first.params["offset"]
    assert unpack_stage_meta(meta, "sz2").params == {"block_size": 16, "offset": 0.0}


@pytest.mark.parametrize(
    "left, right",
    [({"x": True}, {"x": 1}), ({"x": 1}, {"x": 1.0}), ({"x": 0.0}, {"x": -0.0})],
)
def test_params_that_compare_equal_keep_their_own_json(left, right):
    """``True == 1 == 1.0`` and ``0.0 == -0.0``, but their JSON differs."""
    first, second = pack_stage_meta(_ctx(**left)), pack_stage_meta(_ctx(**right))
    assert first != second
    assert pack_stage_meta(_ctx(**left)) == first  # and the cache hands each back
    assert repr(unpack_stage_meta(second, "sz2").params) == repr(right)


# ----------------------------------------------------------------------
# One scan per lossy tensor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ["float16", "float32", "float64"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_range_scan_rejects_every_non_finite_value(dtype, bad):
    data = np.linspace(-1.0, 1.0, 64).astype(dtype)
    data[37] = bad
    with pytest.raises(UnsupportedDataError, match="sz2: lossy compressors require finite"):
        validate_lossy_input(data, codec="sz2")


@pytest.mark.parametrize("dtype", ["float16", "float32", "float64"])
def test_the_range_resolves_the_bound_a_scan_resolves(dtype):
    data = np.random.default_rng(5).normal(size=(33, 7)).astype(dtype)[:, ::2]
    checked, value_range = validate_lossy_input(data)
    assert checked is data
    assert value_range == float(data.max()) - float(data.min())
    for mode in ErrorBoundMode:
        assert resolve_error_bound(data, 1e-2, mode, value_range) == resolve_error_bound(
            data, 1e-2, mode
        )
    assert validate_lossy_input(np.zeros((0, 3), dtype))[1] == 0.0


class _OneAtATime(LossyCompressor):
    """A codec that is not staged: the base class's group default serves it."""

    name = "one-at-a-time"

    def compress(self, data, error_bound, mode=ErrorBoundMode.REL):
        return np.asarray(data).tobytes()

    def decompress(self, payload):
        return np.frombuffer(payload, np.float32)


@pytest.mark.parametrize("codec", [get_lossy_compressor("sz2"), _OneAtATime()])
def test_compress_group_reports_each_tensors_range(codec):
    tensors = [np.array([1.0, 4.0, -2.0], np.float32), np.full(5, 3.0, np.float32)]
    ranges = []
    codec.compress_group(tensors, 1e-2, ErrorBoundMode.REL, ranges)
    assert ranges == [6.0, 0.0]
