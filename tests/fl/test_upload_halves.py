"""Unit tests for the two halves of a client upload in ``repro.fl.transport``.

``encode_upload`` (codec half) and ``account_upload`` (link half) are the
one upload body every executor runs; ``transmit_update`` is dropout roll +
both.  Pinned here: what each outcome — delivered, dropped in transit,
corrupted in transit — costs and leaves behind, with and without a codec, and
which clock the codec half reads on and off the main thread.
"""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest

from repro.core import FedSZCompressor
from repro.fl.transport import (
    ClientLink,
    LinkSpec,
    UploadRecord,
    account_upload,
    corrupt_wire_bytes,
    encode_upload,
    transmit_update,
)
from repro.utils.timing import lane_clock


class _CountingCodec(FedSZCompressor):
    """FedSZ codec that counts its calls."""

    compress_calls = 0
    decompress_calls = 0

    def compress(self, state_dict):
        self.compress_calls += 1
        return super().compress(state_dict)

    def decompress(self, payload):
        self.decompress_calls += 1
        return super().decompress(payload)


@pytest.fixture
def state():
    rng = np.random.default_rng(0)
    return {
        "conv.weight": rng.standard_normal((64, 64)).astype(np.float32),
        "conv.bias": rng.standard_normal(8).astype(np.float32),
    }


def _original_nbytes(state) -> int:
    return sum(v.nbytes for v in state.values())


def test_delivered_upload_round_trips_through_the_codec(state):
    codec = _CountingCodec(error_bound=1e-2)
    upload = encode_upload(state, codec, LinkSpec())
    assert isinstance(upload, UploadRecord)
    assert upload.delivered
    assert (codec.compress_calls, codec.decompress_calls) == (1, 1)
    assert upload.original_nbytes == _original_nbytes(state)
    assert 0 < upload.wire_nbytes < upload.original_nbytes
    assert upload.compress_seconds > 0 and upload.decompress_seconds > 0
    assert upload.report is codec.last_report
    assert upload.received_state.keys() == state.keys()
    np.testing.assert_array_equal(upload.received_state["conv.bias"], state["conv.bias"])


def test_dropped_upload_is_never_decompressed(state):
    codec = _CountingCodec(error_bound=1e-2)
    upload = encode_upload(state, codec, LinkSpec(), dropped=True)
    assert (codec.compress_calls, codec.decompress_calls) == (1, 0)
    assert upload.decompress_seconds == 0.0
    assert upload.received_state is None
    assert not upload.delivered
    assert upload.wire_nbytes > 0  # the client still sent it

    stats = account_upload(ClientLink(0), upload)
    assert not stats.delivered and stats.decompress_seconds == 0.0


def test_dropped_upload_on_a_device_link_models_compress_only(state):
    link = ClientLink(0, LinkSpec(device="raspberry-pi-5"))
    codec = FedSZCompressor(error_bound=1e-2)
    upload = encode_upload(state, codec, link.spec, dropped=True)
    assert upload.compress_seconds == link.spec.device_profile.compression_seconds(
        "sz2", _original_nbytes(state), 1e-2
    )
    assert upload.decompress_seconds == 0.0


@pytest.mark.parametrize("codec_fn", [lambda: None, lambda: _CountingCodec(error_bound=1e-2)],
                         ids=["raw", "fedsz"])
def test_corrupted_upload_is_rejected_without_touching_the_dropout_stream(state, codec_fn):
    codec = codec_fn()
    link = ClientLink(0, LinkSpec(dropout_probability=0.5), seed=5)
    before = link._rng.bit_generator.state
    received, stats = transmit_update(state, codec, link, corrupted=True)
    assert link._rng.bit_generator.state == before  # the fault pre-empts the loss model
    assert received is None
    assert not stats.delivered
    assert stats.payload_nbytes > 0
    assert stats.decompress_seconds == 0.0
    assert stats.transfer_seconds == link.channel.transfers[-1].seconds > 0
    assert link.channel.transfers[-1].description == "corrupted client update"
    if codec is not None:
        assert (codec.compress_calls, codec.decompress_calls) == (1, 0)
        assert stats.compress_seconds > 0
        assert stats.payload_nbytes == len(corrupt_wire_bytes(codec.compress(state)))


def test_corrupted_upload_fails_loudly_if_the_frame_check_accepts(state, monkeypatch):
    monkeypatch.setattr(
        "repro.fl.transport.unframe_checksummed", lambda magic, data: data
    )
    with pytest.raises(RuntimeError, match="passed the frame check"):
        encode_upload(state, None, LinkSpec(), corrupted=True)


@pytest.mark.parametrize("dropped", [False, True], ids=["delivered", "dropped"])
def test_raw_upload_without_a_codec(state, dropped):
    upload = encode_upload(state, None, LinkSpec(), dropped=dropped)
    assert upload.wire_nbytes == upload.original_nbytes == _original_nbytes(state)
    assert upload.compress_seconds == upload.decompress_seconds == 0.0
    assert upload.report is None
    assert upload.delivered is not dropped
    if dropped:
        assert upload.received_state is None
    else:
        assert upload.received_state is not state  # a copy, sharing the arrays
        assert upload.received_state["conv.weight"] is state["conv.weight"]

    link = ClientLink(0, LinkSpec(bandwidth_mbps=10.0, straggler_factor=3.0))
    stats = account_upload(link, upload)
    assert stats.ratio == 1.0
    assert stats.payload_nbytes == upload.original_nbytes
    assert stats.transfer_seconds == link.spec.transmission_seconds(upload.original_nbytes)
    assert link.channel.transfers[-1].description == "raw client update"


def test_upload_record_crosses_a_process_boundary(state):
    upload = encode_upload(state, FedSZCompressor(error_bound=1e-2), LinkSpec())
    clone = pickle.loads(pickle.dumps(upload))
    link, twin = ClientLink(0), ClientLink(0)
    assert account_upload(twin, clone) == account_upload(link, upload)


def test_a_slow_link_bills_its_seconds_without_sleeping(state, monkeypatch):
    """Eqn. 1's turnaround is modelled, never slept: a 0.01 Mb/s link with a
    5 s latency bills over 5 s and the upload still returns at once."""

    def _no_sleep(seconds):
        raise AssertionError(f"an upload slept {seconds} s")

    monkeypatch.setattr(time, "sleep", _no_sleep)
    spec = LinkSpec(bandwidth_mbps=0.01, latency_seconds=5.0)
    link = ClientLink(0, spec)
    received, stats = transmit_update(state, FedSZCompressor(error_bound=1e-2), link)
    assert received is not None and stats.delivered
    assert stats.transfer_seconds == spec.transmission_seconds(stats.payload_nbytes) > 5.0
    assert link.channel.total_seconds == stats.transfer_seconds


def test_the_upload_halves_take_no_codec_lock(state):
    """Each process trains on one thread, so no caller shares a codec between
    threads and neither half accepts a lock to guard one."""
    codec = FedSZCompressor(error_bound=1e-2)
    with pytest.raises(TypeError, match="lock"):
        encode_upload(state, codec, LinkSpec(), lock=threading.Lock())
    with pytest.raises(TypeError, match="lock"):
        transmit_update(state, codec, ClientLink(0), lock=threading.Lock())


def _on_a_thread(function):
    """``function()`` on a fresh non-main thread; its result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(function()))
    thread.start()
    thread.join()
    return out[0]


def test_a_lane_reads_its_own_cpu_clock():
    assert lane_clock() is time.perf_counter
    assert _on_a_thread(lane_clock) is time.thread_time


def test_codec_seconds_off_the_main_thread_come_from_the_thread_clock(state, monkeypatch):
    """With the thread clock frozen, a lane's codec half measures nothing —
    on every timer down to the pipeline's per-tensor shares — while the main
    thread still measures wall seconds."""
    monkeypatch.setattr(time, "thread_time", lambda: 1.0)
    codec = FedSZCompressor(error_bound=1e-2)
    upload = _on_a_thread(lambda: encode_upload(state, codec, LinkSpec()))
    assert upload.delivered
    assert upload.compress_seconds == upload.decompress_seconds == 0.0
    assert upload.report.compress_seconds == 0.0
    assert set(upload.report.per_tensor_compress_seconds.values()) == {0.0}
    assert set(upload.report.per_tensor_decompress_seconds.values()) == {0.0}
    upload = encode_upload(state, codec, LinkSpec())
    assert upload.compress_seconds > 0 and upload.decompress_seconds > 0
