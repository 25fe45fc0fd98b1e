"""Unit tests for the once-per-round broadcast preparation (repro.fl.broadcast).

Covers the wire buffer's round trips (each round ships its own state bit for
bit, and the codec it is handed), the codec seeing ``compress`` every
round under ``compress_downlink``, and a serial run building no wire buffer;
plus the behaviours that ride on it: broadcast codec seconds landing on the
round record (and in the Figure-6 breakdown), and the serial executor's
upload lanes cloning the codec once per lane rather than once per task.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import FedSZCompressor
from repro.fl.broadcast import ENCODING_ARRAYS, ENCODING_CODEC, BroadcastCache, BroadcastPayload


@pytest.fixture()
def state():
    rng = np.random.default_rng(0)
    return {
        "layer.weight": rng.normal(size=(64, 32)).astype(np.float32),
        "layer.bias": rng.normal(size=(64,)).astype(np.float32),
    }


def _nbytes(state):
    return int(sum(np.asarray(v).nbytes for v in state.values()))


# ----------------------------------------------------------------------
# Payload round-trips
# ----------------------------------------------------------------------
def test_raw_payload_roundtrip(state):
    cache = BroadcastCache()
    out_state, nbytes, payload, compress_s, decompress_s = cache.round_state(
        state, codec=None, compress_downlink=False, build_payload=True
    )
    assert out_state.keys() == state.keys()
    assert payload.encoding == ENCODING_ARRAYS
    assert nbytes == payload.nbytes == _nbytes(state)
    assert compress_s == decompress_s == 0.0
    decoded = payload.decode()
    for name in state:
        np.testing.assert_array_equal(decoded[name], state[name])


def test_codec_payload_roundtrip(state):
    codec = FedSZCompressor(error_bound=1e-2)
    cache = BroadcastCache()
    out_state, nbytes, payload, compress_s, decompress_s = cache.round_state(
        state, codec=codec, compress_downlink=True, build_payload=True
    )
    assert payload.encoding == ENCODING_CODEC
    assert nbytes == payload.nbytes == len(payload.data)
    assert cache.compressions == 1  # the wire buffer reuses the codec payload
    assert compress_s > 0.0 and decompress_s > 0.0
    # Workers decode with their own clone; the result must equal the
    # decompressed reference the parent's clients train on.
    decoded = payload.decode(codec.clone())
    for name in state:
        np.testing.assert_array_equal(decoded[name], out_state[name])


def test_codec_payload_requires_codec(state):
    payload = BroadcastPayload(ENCODING_CODEC, b"\x00", 1)
    with pytest.raises(ValueError, match="codec"):
        payload.decode()


# ----------------------------------------------------------------------
# Every round prepared from scratch
# ----------------------------------------------------------------------
class _CountingFedSZ(FedSZCompressor):
    """A clonable codec that counts its ``compress`` calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def compress(self, state_dict):
        self.calls += 1
        return super().compress(state_dict)


class _StatefulCodec:
    """A codec without ``clone()`` whose internal stream advances per call."""

    def __init__(self):
        self.calls = 0

    def compress(self, state_dict):
        self.calls += 1
        return FedSZCompressor(error_bound=1e-2).compress(state_dict)

    def decompress(self, payload):
        return FedSZCompressor(error_bound=1e-2).decompress(payload)


@pytest.mark.parametrize(
    "make_codec",
    [lambda: _CountingFedSZ(error_bound=1e-2), _StatefulCodec],
    ids=["clonable", "stateful"],
)
def test_every_codec_compresses_every_round_under_compress_downlink(state, make_codec):
    """The same state three rounds running is compressed three times: no
    round is served from an earlier one, whether or not the codec clones."""
    codec = make_codec()
    cache = BroadcastCache()
    for _ in range(3):
        cache.round_state(state, codec, True, build_payload=True)
    assert codec.calls == cache.compressions == cache.serializations == 3
    assert (cache.hits, cache.misses) == (0, 3)


def _with_bits(values, dtype, uint):
    return {"w": np.array(values, dtype=uint).view(dtype)}


@pytest.mark.parametrize(
    "first, second",
    [
        (_with_bits([0, 0x3F800000], np.float32, np.uint32),  # +0.0, 1.0
         _with_bits([0x80000000, 0x3F800000], np.float32, np.uint32)),  # -0.0, 1.0
        (_with_bits([0x7FC00000], np.float32, np.uint32),  # two NaN payloads
         _with_bits([0x7FC00001], np.float32, np.uint32)),
        (_with_bits([0x7FF8000000000000], np.float64, np.uint64),
         _with_bits([0xFFF8000000000000], np.float64, np.uint64)),  # a sign-flipped NaN
        ({"w": np.zeros(4, np.float32)}, {"w": np.zeros(4, np.int32)}),  # same bytes, new dtype
        ({"w": np.zeros(4, np.float32)}, {"w": np.zeros((2, 2), np.float32)}),  # new shape
        ({"w": np.zeros(4, np.float32)}, {"v": np.zeros(4, np.float32)}),  # new name
    ],
    ids=["signed-zero", "nan-payload", "nan-sign", "dtype", "shape", "name"],
)
def test_consecutive_raw_rounds_ship_each_state_bit_for_bit(first, second):
    """States equal in value but not in bytes, broadcast one round after the
    other: each round's wire buffer decodes to its own state's names, dtypes,
    shapes and bits, never to the previous round's."""
    cache = BroadcastCache()
    for sent in (first, second):
        _, nbytes, payload, _, _ = cache.round_state(sent, None, False, build_payload=True)
        received = payload.decode()
        assert list(received) == list(sent)
        for name, array in sent.items():
            assert received[name].dtype == array.dtype
            assert received[name].shape == array.shape
            assert received[name].tobytes() == array.tobytes()
        assert nbytes == _nbytes(sent)
    assert (cache.hits, cache.misses, cache.serializations) == (0, 2, 2)


def test_an_in_place_edit_between_rounds_reaches_the_next_broadcast(tiny_setup):
    """Editing the server model in place between rounds changes what the
    next round ships, and an unedited model ships the same bytes again."""
    server = _tiny_runtime(tiny_setup).server
    cache = BroadcastCache()
    payloads = []
    for edit in (False, False, True):
        if edit:
            next(server.model.parameters()).data.reshape(-1)[0] += 1.0
        _, _, payload, _, _ = cache.round_state(
            server.global_state(), None, False, build_payload=True
        )
        payloads.append(payload.data)
    assert payloads[0] == payloads[1]
    assert payloads[2] != payloads[1]
    name, first = next(iter(server.global_state().items()))
    assert BroadcastPayload(ENCODING_ARRAYS, payloads[2], 0).decode()[name].reshape(-1)[0] == (
        first.reshape(-1)[0]
    )


def test_a_new_codec_bound_takes_effect_the_next_round(state):
    """Each round compresses with the codec it is handed: a tighter bound the
    round after a looser one ships exactly what that codec gives alone."""
    cache = BroadcastCache()
    shipped = []
    for bound in (1e-2, 1e-3):
        codec = FedSZCompressor(error_bound=bound)
        out_state, nbytes, payload, _, _ = cache.round_state(
            state, codec, True, build_payload=True
        )
        shipped.append(payload.data)
        alone = FedSZCompressor(error_bound=bound).compress(dict(state))
        assert payload.data == alone
        assert nbytes == len(alone)
        expected = FedSZCompressor(error_bound=bound).decompress(alone)
        for name in state:
            np.testing.assert_array_equal(out_state[name], expected[name])
    assert shipped[0] != shipped[1]
    assert (cache.hits, cache.misses, cache.compressions) == (0, 2, 2)


# ----------------------------------------------------------------------
# Broadcast codec seconds on the round record (timing accounting)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_setup():
    from repro.data import load_dataset

    full = load_dataset("cifar10", num_samples=80, image_size=8, seed=0)
    return full.split(0.75, seed=1)


def _tiny_runtime(tiny_setup, **config_kwargs):
    from repro.fl import FederatedRuntime, FLConfig
    from repro.nn.models import create_model

    train, val = tiny_setup
    return FederatedRuntime(
        lambda: create_model("alexnet", "tiny", num_classes=10, seed=5),
        train,
        val,
        FLConfig(num_clients=2, rounds=2, batch_size=16, seed=3, **config_kwargs),
        codec=FedSZCompressor(error_bound=1e-2),
    )


def test_broadcast_codec_seconds_reach_the_round_record(tiny_setup):
    runtime = _tiny_runtime(tiny_setup, compress_downlink=True)
    history = runtime.run()
    for record in history.records:
        assert record.broadcast_compress_seconds > 0.0
        assert record.broadcast_decompress_seconds > 0.0
    breakdown = history.mean_epoch_breakdown()
    expected = (
        sum(r.compression_seconds for r in history.records)
        + sum(
            r.broadcast_compress_seconds + r.broadcast_decompress_seconds
            for r in history.records
        )
    ) / len(history.records)
    assert breakdown.compression_seconds == pytest.approx(expected)


def test_uncompressed_broadcast_records_zero_codec_seconds(tiny_setup):
    runtime = _tiny_runtime(tiny_setup)
    history = runtime.run()
    for record in history.records:
        assert record.broadcast_compress_seconds == 0.0
        assert record.broadcast_decompress_seconds == 0.0


def test_a_serial_raw_run_builds_no_wire_buffer(tiny_setup):
    runtime = _tiny_runtime(tiny_setup)
    assert len(runtime.run().records) == 2
    cache = runtime.broadcast_cache
    assert (cache.hits, cache.misses, cache.serializations, cache.compressions) == (0, 2, 0, 0)


# ----------------------------------------------------------------------
# Serial upload lanes clone once per lane (clone churn)
# ----------------------------------------------------------------------
def test_serial_lanes_clone_once_per_lane(tiny_setup, monkeypatch):
    from repro.fl import FederatedRuntime, FLConfig, SerialExecutor
    from repro.nn.models import create_model

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two upload lanes

    class CountingFedSZ(FedSZCompressor):
        clone_calls = 0

        def clone(self):
            type(self).clone_calls += 1
            return super().clone()

    train, val = tiny_setup
    codec = CountingFedSZ(error_bound=1e-2)
    runtime = FederatedRuntime(
        lambda: create_model("alexnet", "tiny", num_classes=10, seed=5),
        train,
        val,
        FLConfig(num_clients=8, rounds=1, batch_size=16, seed=3),
        codec=codec,
        executor=SerialExecutor(),
    )
    results_report = runtime.run().records[0]
    assert results_report.participating_clients == 8
    # One clone per lane per round — not one per task (8 would be churn).
    assert CountingFedSZ.clone_calls == 2
    # Facade contract: the caller's codec reports the last participant.
    assert codec.last_report is not None
    last_stat = results_report.client_stats[-1]
    assert codec.last_report.compressed_nbytes == last_stat.payload_nbytes
