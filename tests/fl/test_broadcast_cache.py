"""Unit tests for the fingerprint-keyed broadcast cache (repro.fl.broadcast).

Covers the cache's three claims in isolation — once-per-round serialization,
guaranteed invalidation on state/codec/bound changes, stateful-codec opt-out —
plus the satellite behaviours that ride on it: broadcast codec seconds landing
on the round record (and in the Figure-6 breakdown), and the serial
executor's upload lanes cloning the codec once per lane rather than once per
task.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import FedSZCompressor, IdentityCodec
from repro.fl.broadcast import (
    ENCODING_ARRAYS,
    ENCODING_CODEC,
    BroadcastCache,
    BroadcastPayload,
    broadcast_key,
    state_fingerprint,
)


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
# Fingerprints and payload round-trips
# ----------------------------------------------------------------------
def test_state_fingerprint_tracks_content(state):
    fingerprint = state_fingerprint(state)
    assert fingerprint == state_fingerprint({k: v.copy() for k, v in state.items()})
    perturbed = {k: v.copy() for k, v in state.items()}
    perturbed["layer.bias"][0] += 1.0
    assert state_fingerprint(perturbed) != fingerprint


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
    payload = BroadcastPayload("key", ENCODING_CODEC, b"\x00", 1)
    with pytest.raises(ValueError, match="codec"):
        payload.decode()


# ----------------------------------------------------------------------
# Hit/miss and invalidation
# ----------------------------------------------------------------------
def test_repeat_round_is_a_hit_and_serializes_nothing(state):
    cache = BroadcastCache()
    first = cache.round_state(state, None, False, build_payload=True)
    second = cache.round_state(state, None, False, build_payload=True)
    assert (cache.hits, cache.misses, cache.serializations) == (1, 1, 1)
    assert second[0] is first[0]  # the cached state object itself
    assert second[2] is first[2]  # and the cached wire buffer


def test_hit_builds_payload_lazily_when_first_requested(state):
    """Round 1 under a serial executor (no payload), round 2 after swapping to
    the process executor: the hit must still produce a wire buffer."""
    cache = BroadcastCache()
    cache.round_state(state, None, False, build_payload=False)
    assert cache.serializations == 0
    _, _, payload, _, _ = cache.round_state(state, None, False, build_payload=True)
    assert payload is not None
    assert (cache.hits, cache.serializations) == (1, 1)


def test_state_change_invalidates(state):
    cache = BroadcastCache()
    cache.round_state(state, None, False)
    changed = {k: v.copy() for k, v in state.items()}
    changed["layer.weight"] += 0.5
    cache.round_state(changed, None, False)
    assert (cache.hits, cache.misses) == (0, 2)


def test_an_in_place_edit_between_rounds_is_a_miss(state, tiny_setup):
    """The cache keeps its own copy of last round's state: editing the caller's
    arrays in place, or the server model behind them, cannot fake a hit."""
    cache = BroadcastCache()
    cache.round_state(state, None, False)
    state["layer.bias"][3] += 1.0  # the very arrays the cache saw last round
    cache.round_state(state, None, False)
    assert (cache.hits, cache.misses) == (0, 2)

    server = _tiny_runtime(tiny_setup).server
    cache = BroadcastCache()
    cache.round_state(server.global_state(), None, False)
    cache.round_state(server.global_state(), None, False)
    parameter = next(server.model.parameters())
    parameter.data.reshape(-1)[0] += 1.0
    cache.round_state(server.global_state(), None, False)
    assert (cache.hits, cache.misses) == (1, 2)


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
def test_states_equal_in_value_but_not_in_bytes_are_a_miss(first, second):
    cache = BroadcastCache()
    cache.round_state(first, None, False)
    cache.round_state(second, None, False)
    assert (cache.hits, cache.misses) == (0, 2)
    # The same bytes again are a hit, NaN or not.
    cache.round_state({k: v.copy() for k, v in second.items()}, None, False)
    assert (cache.hits, cache.misses) == (1, 2)


@pytest.fixture()
def fingerprint_calls(monkeypatch):
    """One entry per :func:`state_fingerprint` call made through the module."""
    import repro.fl.broadcast as broadcast

    calls = []
    monkeypatch.setattr(
        broadcast, "state_fingerprint", lambda s: calls.append(1) or state_fingerprint(s)
    )
    return calls


def test_the_content_digest_is_computed_only_for_a_wire_buffer(state, fingerprint_calls):
    cache = BroadcastCache()
    cache.round_state(state, None, False)
    cache.round_state(state, None, False)
    assert fingerprint_calls == []
    _, _, payload, _, _ = cache.round_state(state, None, False, build_payload=True)
    assert fingerprint_calls == [1]
    assert payload.fingerprint == broadcast_key(state, None, False)


def test_codec_fingerprint_and_bound_changes_invalidate(state):
    cache = BroadcastCache()
    cache.round_state(state, FedSZCompressor(error_bound=1e-2), True)
    # Same state, tighter bound: must recompress.
    cache.round_state(state, FedSZCompressor(error_bound=1e-3), True)
    # Same state, different codec class entirely.
    cache.round_state(state, IdentityCodec(), True)
    assert (cache.hits, cache.misses, cache.compressions) == (0, 3, 3)
    # Back to a bound already seen — only depth-1 history is kept, still a miss.
    cache.round_state(state, FedSZCompressor(error_bound=1e-2), True)
    assert cache.misses == 4


def test_uncompressed_key_ignores_codec(state):
    """With compress_downlink off the codec never touches the broadcast, so
    its identity must not poison the key."""
    assert broadcast_key(state, FedSZCompressor(), False) == broadcast_key(
        state, None, False
    )
    assert broadcast_key(state, FedSZCompressor(), True) != broadcast_key(
        state, None, False
    )


def test_stateful_codec_never_reuses_across_rounds(state):
    """A codec without clone() must see compress() every round (its internal
    streams advance in call order); the cache always takes the miss path."""

    class StatefulCodec:
        def __init__(self):
            self.calls = 0

        def compress(self, state_dict):
            self.calls += 1
            return FedSZCompressor(error_bound=1e-2).compress(state_dict)

        def decompress(self, payload):
            return FedSZCompressor(error_bound=1e-2).decompress(payload)

    codec = StatefulCodec()
    cache = BroadcastCache()
    cache.round_state(state, codec, True)
    cache.round_state(state, codec, True)
    assert codec.calls == 2
    assert (cache.hits, cache.misses) == (0, 2)


# ----------------------------------------------------------------------
# Broadcast codec seconds on the round record (satellite: timing accounting)
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


def test_a_serial_raw_run_never_hashes_the_model(tiny_setup, fingerprint_calls):
    runtime = _tiny_runtime(tiny_setup)
    assert len(runtime.run().records) == 2
    assert runtime.broadcast_cache.misses == 2
    assert fingerprint_calls == []


# ----------------------------------------------------------------------
# Serial upload lanes clone once per lane (satellite: clone churn)
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
