"""The TensorTask engine: parallel == serial payloads, per-tensor timings.

The tensor-parallel hot path must be a pure scheduling change — the assembled
FedSZ bitstream is byte-identical to the serial path for any worker count —
and both paths must record measured per-tensor compress/decompress times on
the report.  A thread-pool task is one group of the codec's ``group_slices``:
the tiny model's nine lossy tensors are a single SZ2 group at the real slab
size (nothing to overlap), so every test also runs with the slab shrunk to
8,192 values, where they are four.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import SZ2Compressor, sz2
from repro.core import FedSZCompressor
from repro.core.config import FedSZConfig
from repro.core.pipeline import (
    TensorTask,
    compress_state_dict,
    decompress_state_dict,
    resolve_codec_workers,
    roundtrip_state_dict,
)


@pytest.fixture(scope="module")
def model_state():
    from repro.nn.models import create_model

    return create_model("mobilenetv2", "tiny", seed=3).state_dict()


@pytest.fixture(autouse=True, params=[sz2._SLAB_ELEMENTS, 8192], ids=["real-slab", "8K-slab"])
def slab(request, monkeypatch):
    monkeypatch.setattr(sz2, "_SLAB_ELEMENTS", request.param)


def _lossy_names(state, threshold=1024):
    from repro.core.partition import partition_state_dict

    return set(partition_state_dict(state, threshold).lossy)


def _group_count(state) -> int:
    from repro.core.partition import partition_state_dict

    lossy = partition_state_dict(state, 1024).lossy
    return len(SZ2Compressor().group_slices([tensor.size for tensor in lossy.values()]))


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_parallel_payload_byte_identical_to_serial(model_state, workers):
    serial_payload, _ = compress_state_dict(model_state, FedSZConfig())
    parallel_payload, report = compress_state_dict(
        model_state, FedSZConfig(parallel_tensors=True, max_codec_workers=workers)
    )
    assert parallel_payload == serial_payload
    groups = _group_count(model_state)
    assert groups == (4 if sz2._SLAB_ELEMENTS == 8192 else 1)
    assert report.codec_workers == min(workers, groups)


def test_parallel_and_serial_roundtrips_agree(model_state):
    serial, _ = roundtrip_state_dict(model_state, FedSZConfig())
    parallel, _ = roundtrip_state_dict(
        model_state, FedSZConfig(parallel_tensors=True, max_codec_workers=4)
    )
    assert set(serial) == set(parallel)
    for name in serial:
        np.testing.assert_array_equal(serial[name], parallel[name])


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_per_tensor_timing_maps_cover_the_lossy_partition(model_state, parallel):
    config = FedSZConfig(parallel_tensors=parallel, max_codec_workers=4)
    _, report = roundtrip_state_dict(model_state, config)
    expected = _lossy_names(model_state)
    assert set(report.per_tensor_compress_seconds) == expected
    assert set(report.per_tensor_decompress_seconds) == expected
    assert all(seconds >= 0.0 for seconds in report.per_tensor_compress_seconds.values())
    assert report.lossy_compress_seconds == pytest.approx(
        sum(report.per_tensor_compress_seconds.values())
    )
    # Every task's timing window lies inside the compress wall and at most
    # ``codec_workers`` tasks overlap, so the summed codec time is bounded by
    # workers x wall (== the wall itself on the serial path).
    assert report.lossy_compress_seconds <= report.compress_seconds * report.codec_workers


def test_fedsz_compressor_exposes_parallel_knobs(model_state):
    codec = FedSZCompressor(error_bound=1e-2, parallel_tensors=True, max_codec_workers=4)
    payload = codec.compress(model_state)
    assert payload == FedSZCompressor(error_bound=1e-2).compress(model_state)
    restored = codec.decompress(payload)
    assert set(restored) == set(model_state)
    assert set(codec.last_report.per_tensor_decompress_seconds) == _lossy_names(model_state)
    duplicate = codec.clone()
    assert duplicate.config.parallel_tensors and duplicate.config.max_codec_workers == 4


def test_decompress_of_foreign_payload_does_not_pollute_last_report(model_state):
    """Timings from some other payload must not be mixed into a report that
    describes a different compression."""
    codec = FedSZCompressor(error_bound=1e-2)
    codec.compress(model_state)
    own_decode_keys = _lossy_names(model_state)

    foreign_state = {"only.weight": np.ones((64, 64), dtype=np.float32)}
    foreign_payload = FedSZCompressor(error_bound=1e-2).compress(foreign_state)
    restored = codec.decompress(foreign_payload)
    assert set(restored) == {"only.weight"}
    assert codec.last_report.per_tensor_decompress_seconds == {}

    # Decompressing the matching payload still records its timings.
    codec.decompress(codec.compress(model_state))
    assert set(codec.last_report.per_tensor_decompress_seconds) == own_decode_keys


def test_decompress_honours_explicit_config_and_report(model_state):
    payload, report = compress_state_dict(model_state, FedSZConfig())
    state = decompress_state_dict(
        payload,
        FedSZConfig(parallel_tensors=True, max_codec_workers=4),
        report=report,
    )
    assert set(report.per_tensor_decompress_seconds) == _lossy_names(model_state)
    for name, tensor in state.items():
        assert tensor.shape == np.asarray(model_state[name]).shape


def test_resolve_codec_workers_bounds():
    serial = FedSZConfig()
    parallel = FedSZConfig(parallel_tensors=True, max_codec_workers=8)
    assert resolve_codec_workers(serial, 10) == 1
    assert resolve_codec_workers(parallel, 0) == 1
    assert resolve_codec_workers(parallel, 1) == 1
    assert resolve_codec_workers(parallel, 3) == 3  # never more lanes than tasks
    assert resolve_codec_workers(parallel, 100) == 8
    unlimited = FedSZConfig(parallel_tensors=True)  # None → cpu count
    assert 1 <= resolve_codec_workers(unlimited, 100) <= 100


def test_invalid_max_codec_workers_rejected():
    with pytest.raises(ValueError):
        FedSZConfig(max_codec_workers=0)
    with pytest.raises(ValueError):
        FedSZCompressor(max_codec_workers=-2)


def test_tensor_task_nbytes():
    task = TensorTask(name="w", tensor=np.zeros((4, 4), dtype=np.float32))
    assert task.nbytes == 64
