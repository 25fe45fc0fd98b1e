"""The TensorTask engine: the pool's rule, pooled == serial payloads, timings.

The pipeline puts codec groups on lanes only when at least two of them hold
the codec's ``pool_min_values`` (2^16 values, 2^20 for SZx), so most tests
here run the default config with that threshold patched down to a few
thousand values — what the pool does is then exercised on tensors small
enough for tier-1.  It must be a pure scheduling change: the assembled FedSZ
bitstream and every reconstruction are byte-identical to the serial path, a
failing group raises what the serial path raises, and no thread outlives the
call.
"""

from __future__ import annotations

import os
import re
import threading

import numpy as np
import pytest

from repro.compression import (
    SZ2Compressor,
    SZ3Compressor,
    SZxCompressor,
    ZFPCompressor,
    get_lossy_compressor,
    sz2,
)
from repro.compression.base import ErrorBoundMode
from repro.compression.errors import CorruptPayloadError, UnsupportedDataError
from repro.core import FedSZCompressor, pipeline
from repro.core.config import FedSZConfig
from repro.core.partition import partition_state_dict
from repro.core.pipeline import (
    TensorTask,
    compress_state_dict,
    decompress_state_dict,
    resolve_codec_workers,
)
from repro.core.serializer import build_fedsz_payload, parse_fedsz_payload
from repro.nn.models import create_model

#: Patched pool threshold: the three big tensors of ``_state`` qualify, ``d`` does not.
LOW = 4096
SERIAL = FedSZConfig(max_codec_workers=1)
POOLED = FedSZConfig(max_codec_workers=2)
CODECS = {"sz2": SZ2Compressor, "sz3": SZ3Compressor, "szx": SZxCompressor, "zfp": ZFPCompressor}


def _roundtrip(state, config):
    """Compress then decompress ``state``; the decode is timed on the report."""
    payload, report = compress_state_dict(state, config)
    return decompress_state_dict(payload, config, report=report), report


def lower_thresholds(monkeypatch, values: int) -> None:
    """Give every codec's groups a lane from ``values`` values on, and cap
    SZ2's runs at one slab, so each big tensor of ``_state`` is a group."""
    for codec in CODECS.values():
        monkeypatch.setattr(codec, "pool_min_values", values)
    monkeypatch.setattr(sz2, "_RUN_ELEMENTS", sz2._SLAB_ELEMENTS)


@pytest.fixture
def low_threshold(monkeypatch):
    lower_thresholds(monkeypatch, LOW)


def _state(dtype=np.float32, seed=0):
    """Three tensors SZ2 walks alone (each over the 64K-value run limit that
    ``lower_thresholds`` sets), a small one and a lossless bias."""
    rng = np.random.default_rng(seed)
    shapes = {"a.weight": (256, 257), "b.weight": (130, 512), "c.weight": (70_000,),
              "d.weight": (48, 48), "d.bias": (48,)}
    return {name: (rng.standard_normal(shape) * 0.05).astype(dtype)
            for name, shape in shapes.items()}


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------
#: Where each codec gains on threads (``resolve_codec_workers`` holds the measurements).
THRESHOLDS = {"sz2": 1 << 16, "sz3": 1 << 16, "szx": 1 << 20, "zfp": 1 << 16}


@pytest.mark.parametrize("name", THRESHOLDS)
def test_the_pool_needs_two_groups_of_the_codecs_threshold(name):
    codec = get_lossy_compressor(name)
    at = codec.pool_min_values
    assert at == THRESHOLDS[name]
    capped = FedSZConfig(max_codec_workers=8)
    assert resolve_codec_workers(capped, codec, []) == 1
    assert resolve_codec_workers(capped, codec, [at - 1] * 10) == 1
    assert resolve_codec_workers(capped, codec, [at, at - 1, 5]) == 1  # one qualifying group
    assert resolve_codec_workers(capped, codec, [at - 1, at, 5, at]) == 2  # two
    assert resolve_codec_workers(capped, codec, [at] * 3 + [5] * 40) == 3  # lanes <= groups
    assert resolve_codec_workers(capped, codec, [at] * 100) == 8  # the cap
    assert resolve_codec_workers(FedSZConfig(max_codec_workers=1), codec, [at] * 4) == 1
    assert 1 <= resolve_codec_workers(FedSZConfig(), codec, [at] * 100) <= 100  # the host's cores


@pytest.fixture(scope="module")
def mobilenetv2_paper_sizes():
    state = create_model("mobilenetv2", "paper", seed=11).state_dict()
    lossy = partition_state_dict(state, FedSZConfig().partition_threshold).lossy
    return [tensor.size for tensor in lossy.values()]


@pytest.mark.parametrize("name, lanes", [("sz2", 2), ("sz3", 2), ("szx", 1), ("zfp", 2)])
def test_mobilenetv2_paper_is_pooled_by_every_codec_but_szx(
    mobilenetv2_paper_sizes, monkeypatch, name, lanes
):
    """Its largest tensor is 409,600 values: past 2^16 many times over, never 2^20."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    codec = get_lossy_compressor(name)
    sizes = mobilenetv2_paper_sizes
    group_sizes = [sum(sizes[run]) for run in codec.group_slices(sizes)]
    assert max(group_sizes) == 409_600
    assert resolve_codec_workers(FedSZConfig(), codec, group_sizes) == lanes


def test_the_pool_stays_off_outside_the_main_thread():
    widths = []
    codec = SZ2Compressor()
    worker = threading.Thread(
        target=lambda: widths.append(resolve_codec_workers(POOLED, codec, [1 << 20] * 4))
    )
    worker.start()
    worker.join()
    assert widths == [1] and resolve_codec_workers(POOLED, codec, [1 << 20] * 4) == 2


@pytest.mark.parametrize("threshold, workers", [(66_560, 2), (66_561, 1)], ids=["at", "above"])
def test_the_report_names_the_workers_the_rule_chose(monkeypatch, threshold, workers):
    """``a`` (65,792 values) never qualifies: ``b`` (66,560) and ``c``
    (70,000) are two lanes at 66,560 and one above it."""
    lower_thresholds(monkeypatch, threshold)
    state = _state()
    payload, report = compress_state_dict(state, FedSZConfig(max_codec_workers=4))
    assert report.codec_workers == workers
    assert payload == compress_state_dict(state, SERIAL)[0]


def test_small_models_keep_the_serial_path():
    from repro.nn.models import create_model

    state = create_model("mobilenetv2", "tiny", seed=3).state_dict()
    assert compress_state_dict(state, FedSZConfig())[1].codec_workers == 1


# ----------------------------------------------------------------------
# Pooled == serial, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [ErrorBoundMode.REL, ErrorBoundMode.ABS], ids=["rel", "abs"])
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64], ids=lambda d: d.__name__)
@pytest.mark.parametrize("codec", ["sz2", "sz3", "szx", "zfp"])
def test_pooled_payload_and_reconstruction_equal_serial(low_threshold, codec, dtype, mode):
    state = _state(dtype)
    configs = [
        FedSZConfig(lossy_compressor=codec, error_bound_mode=mode, max_codec_workers=workers)
        for workers in (1, 2)
    ]
    (serial, serial_report), (pooled, pooled_report) = (
        _roundtrip(state, config) for config in configs
    )
    assert (serial_report.codec_workers, pooled_report.codec_workers) == (1, 2)
    payloads = [compress_state_dict(state, config)[0] for config in configs]
    assert payloads[0] == payloads[1]
    # Either payload decoded either way gives the same bytes back.
    assert decompress_state_dict(payloads[0], configs[1]).keys() == state.keys()
    for name in state:
        assert serial[name].dtype == pooled[name].dtype == dtype
        assert serial[name].tobytes() == pooled[name].tobytes(), name


def test_pooled_roundtrip_of_a_grouping_codec(low_threshold, monkeypatch):
    """SZ2 at an 8K run limit cuts the tiny model's nine tensors into four
    groups of 5,248 to 7,168 values: four lanes, capped at two."""
    from repro.nn.models import create_model

    monkeypatch.setattr(sz2, "_RUN_ELEMENTS", 8192)
    monkeypatch.setattr(sz2, "_SLAB_ELEMENTS", 8192)
    state = create_model("mobilenetv2", "tiny", seed=3).state_dict()
    (serial, _), (pooled, report) = (_roundtrip(state, c) for c in (SERIAL, POOLED))
    assert report.codec_workers == 2
    for name in state:
        assert serial[name].tobytes() == pooled[name].tobytes(), name


# ----------------------------------------------------------------------
# Timings: wall seconds, not thread seconds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", [SERIAL, POOLED], ids=["serial", "pooled"])
def test_codec_seconds_are_a_share_of_the_wall(low_threshold, config):
    state = _state()
    _, report = _roundtrip(state, config)
    lossy = {name for name in state if name != "d.bias"}
    assert set(report.per_tensor_compress_seconds) == lossy
    assert set(report.per_tensor_decompress_seconds) == lossy
    assert all(seconds >= 0.0 for seconds in report.per_tensor_compress_seconds.values())
    # Pooled groups overlap; their shares still sum to no more than the wall.
    assert report.lossy_compress_seconds <= report.compress_seconds
    assert report.lossy_decompress_seconds <= report.decompress_seconds


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
def test_codec_task_seconds_are_scaled_to_sum_to_the_wall(monkeypatch, workers):
    """Whatever the lanes bill, the tasks' seconds sum to the call's wall.

    One tick a clock read: serially a task bills 1 tick of the 2T + 1 the
    call spans, so seconds left unscaled fall short of the wall."""
    ticks, reads, lock = iter(range(1000)), [], threading.Lock()

    def clock():
        with lock:
            reads.append(float(next(ticks)))
            return reads[-1]

    monkeypatch.setattr(pipeline, "lane_clock", lambda: clock)
    tasks = ["a", "b", "c", "d"]
    outcomes = pipeline._run_codec_tasks(
        tasks, [4, 3, 2, 1], workers, SZ2Compressor(), lambda codec, task: task
    )
    assert [result for result, _ in outcomes] == tasks
    assert sum(seconds for _, seconds in outcomes) == pytest.approx(reads[-1] - reads[0])


# ----------------------------------------------------------------------
# Failure on the pool: the serial error, no thread left behind
# ----------------------------------------------------------------------
def _poisoned(state):
    state = dict(state)
    state["b.weight"] = state["b.weight"].copy()
    state["b.weight"][3, 7] = np.nan
    return state


def _forged(payload):
    header, lossy, lossless = parse_fedsz_payload(payload)
    lossy["b.weight"] = lossy["b.weight"][:40]
    return build_fedsz_payload(header, lossy, lossless)


FAILURES = {
    "nan-compress": (
        UnsupportedDataError,
        lambda config, state: compress_state_dict(_poisoned(state), config),
    ),
    "forged-decompress": (
        CorruptPayloadError,
        lambda config, state: decompress_state_dict(
            _forged(compress_state_dict(state, config)[0]), config
        ),
    ),
}


@pytest.mark.parametrize("failure", FAILURES)
@pytest.mark.parametrize("codec", ["sz2", "szx"])
def test_a_failing_group_raises_the_serial_error_and_joins_the_pool(low_threshold, codec, failure):
    expected, call = FAILURES[failure]
    state = _state()
    errors = []
    for workers in (1, 2):
        config = FedSZConfig(lossy_compressor=codec, max_codec_workers=workers)
        before = threading.active_count()
        with pytest.raises(expected) as raised:
            call(config, state)
        assert threading.active_count() == before
        errors.append(raised.value)
    assert type(errors[0]) is type(errors[1]) and str(errors[0]) == str(errors[1])


@pytest.mark.parametrize("codec", ["sz2", "szx"])
def test_a_failing_group_through_the_compressor(low_threshold, codec):
    state = _state()
    serial, pooled = (FedSZCompressor(lossy_compressor=codec, max_codec_workers=w) for w in (1, 2))
    before = threading.active_count()
    with pytest.raises(UnsupportedDataError) as serial_error:
        serial.compress(_poisoned(state))
    with pytest.raises(UnsupportedDataError, match=re.escape(str(serial_error.value))):
        pooled.compress(_poisoned(state))
    forged = _forged(pooled.compress(state))
    assert pooled.last_report.codec_workers == 2
    with pytest.raises(CorruptPayloadError) as serial_error:
        serial.decompress(forged)
    with pytest.raises(CorruptPayloadError, match=re.escape(str(serial_error.value))):
        pooled.decompress(forged)
    assert threading.active_count() == before


# ----------------------------------------------------------------------
# The compressor facade and its reports
# ----------------------------------------------------------------------
def test_fedsz_compressor_keeps_the_cap(low_threshold):
    state = _state()
    codec = FedSZCompressor(error_bound=1e-2, max_codec_workers=2)
    payload = codec.compress(state)
    assert payload == FedSZCompressor(error_bound=1e-2, max_codec_workers=1).compress(state)
    assert codec.last_report.codec_workers == 2
    restored = codec.decompress(payload)
    assert set(restored) == set(state)
    assert set(codec.last_report.per_tensor_decompress_seconds) == set(state) - {"d.bias"}
    assert codec.clone().config.max_codec_workers == 2
    assert "codec_workers<=2" in codec.config.describe()
    assert "codec_workers" not in FedSZConfig().describe()


def test_decompress_of_foreign_payload_does_not_pollute_last_report():
    """Timings from some other payload must not be mixed into a report that
    describes a different compression."""
    state = _state()
    codec = FedSZCompressor(error_bound=1e-2)
    codec.compress(state)

    foreign_state = {"only.weight": np.ones((64, 64), dtype=np.float32)}
    foreign_payload = FedSZCompressor(error_bound=1e-2).compress(foreign_state)
    restored = codec.decompress(foreign_payload)
    assert set(restored) == {"only.weight"}
    assert codec.last_report.per_tensor_decompress_seconds == {}

    # Decompressing the matching payload still records its timings.
    codec.decompress(codec.compress(state))
    assert set(codec.last_report.per_tensor_decompress_seconds) == set(state) - {"d.bias"}


def test_decompress_honours_explicit_config_and_report(low_threshold):
    state = _state()
    payload, report = compress_state_dict(state, SERIAL)
    restored = decompress_state_dict(payload, POOLED, report=report)
    assert set(report.per_tensor_decompress_seconds) == set(state) - {"d.bias"}
    for name, tensor in restored.items():
        assert tensor.shape == state[name].shape


def test_invalid_max_codec_workers_rejected():
    with pytest.raises(ValueError):
        FedSZConfig(max_codec_workers=0)
    with pytest.raises(ValueError):
        FedSZCompressor(max_codec_workers=-2)


def test_tensor_task_nbytes():
    task = TensorTask(name="w", tensor=np.zeros((4, 4), dtype=np.float32))
    assert task.nbytes == 64
