"""Regression tests for the simulated-time / ratio accounting fixes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.metrics import compression_ratio
from repro.core import FedSZCompressor
from repro.core.adaptive import AdaptiveErrorBoundController, AdaptiveFedSZCompressor
from repro.data import load_dataset
from repro.fl import FederatedRuntime, FLConfig, LinkSpec, Transport
from repro.fl.transport import ClientLink, transmit_update
from repro.network.devices import RASPBERRY_PI_5
from repro.nn.models import create_model
from repro.privacy import DPFedSZCompressor


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=240, image_size=8, seed=0)
    return full.split(0.75, seed=1)


@pytest.fixture
def model_fn():
    return lambda: create_model("resnet50", "tiny", num_classes=10, seed=9)


# ----------------------------------------------------------------------
# Downlink: parallel wall-clock vs aggregate, and turnaround inclusion
# ----------------------------------------------------------------------
def test_heterogeneous_downlink_is_parallel_wallclock(data, model_fn):
    """Independent links broadcast in parallel: the round's downlink
    wall-clock is the slowest link, not the sum over the fleet."""
    train, val = data
    specs = [LinkSpec(bandwidth_mbps=bw) for bw in (2.0, 10.0, 50.0, 100.0)]
    runtime = FederatedRuntime(
        model_fn, train, val,
        FLConfig(num_clients=4, rounds=1, batch_size=16, seed=3),
        transport=Transport.heterogeneous(specs),
    )
    record = runtime.run_round()
    per_client = [stat.downlink_seconds for stat in record.client_stats]
    assert all(seconds > 0 for seconds in per_client)
    assert record.downlink_seconds == pytest.approx(max(per_client))
    assert record.downlink_aggregate_seconds == pytest.approx(sum(per_client))
    assert record.downlink_seconds < record.downlink_aggregate_seconds
    # The 2 Mbps client receives the same payload 25x slower than the 50 Mbps one.
    assert per_client[0] > per_client[2]


def test_homogeneous_downlink_keeps_seed_serialised_queue(data, model_fn):
    """A shared channel ships the copies back to back — the seed arithmetic:
    the wall-clock is the full queue, and each client's receive time is its
    cumulative queue position (so the last turnaround sees the whole queue)."""
    train, val = data
    runtime = FederatedRuntime(
        model_fn, train, val, FLConfig(num_clients=3, rounds=1, batch_size=16, seed=3)
    )
    record = runtime.run_round()
    per_client = [stat.downlink_seconds for stat in record.client_stats]
    assert per_client == sorted(per_client)  # later clients wait longer
    slot = per_client[0]
    assert per_client == pytest.approx([slot, 2 * slot, 3 * slot])
    assert record.downlink_seconds == pytest.approx(3 * slot)  # 3 x per-client
    assert record.downlink_aggregate_seconds == pytest.approx(record.downlink_seconds)
    # The round cannot end before its own broadcast phase.
    assert record.simulated_round_seconds >= record.downlink_seconds


def test_turnaround_includes_downlink(data, model_fn):
    train, val = data
    specs = [LinkSpec(bandwidth_mbps=5.0, latency_seconds=0.5) for _ in range(2)]
    runtime = FederatedRuntime(
        model_fn, train, val,
        FLConfig(num_clients=2, rounds=1, batch_size=16, seed=3),
        transport=Transport.heterogeneous(specs),
    )
    record = runtime.run_round()
    for stat in record.client_stats:
        assert stat.downlink_seconds > 0
        assert stat.turnaround_seconds == pytest.approx(
            stat.downlink_seconds
            + stat.train_seconds
            + stat.compress_seconds
            + stat.transfer_seconds
            + stat.decompress_seconds
        )
    # The scheduler's round wall-clock sees the downlink through turnaround.
    assert record.simulated_round_seconds == pytest.approx(
        max(stat.turnaround_seconds for stat in record.client_stats)
    )


# ----------------------------------------------------------------------
# Empty-payload ratio convention
# ----------------------------------------------------------------------
class _EmptyPayloadCodec:
    """Degenerate codec producing a zero-byte payload."""

    def compress(self, state_dict):
        return b""

    def decompress(self, payload):
        return {}


def test_transfer_stats_ratio_matches_metrics_convention():
    state = {"w": np.ones(16, dtype=np.float32)}
    link = ClientLink(0, LinkSpec(bandwidth_mbps=10.0))
    _, stats = transmit_update(state, _EmptyPayloadCodec(), link)
    assert stats.payload_nbytes == 0
    assert stats.ratio == compression_ratio(64, 0)
    assert stats.ratio == float("inf")


def test_transfer_stats_ratio_regular_payload():
    """The ratio is always original bytes over the bytes that travelled —
    for a corrupted upload that is the truncated frame, not the payload."""
    state = {"w": np.zeros(1024, dtype=np.float32)}
    codec = FedSZCompressor(error_bound=1e-2)
    for corrupted in (False, True):
        link = ClientLink(0, LinkSpec(bandwidth_mbps=10.0))
        _, stats = transmit_update(state, codec, link, corrupted=corrupted)
        assert stats.delivered is not corrupted
        assert stats.payload_nbytes > 0
        assert stats.ratio == pytest.approx(compression_ratio(4096, stats.payload_nbytes))
        assert stats.transfer_seconds == pytest.approx(
            link.spec.transmission_seconds(stats.payload_nbytes)
        )


# ----------------------------------------------------------------------
# Device-modelled codec seconds
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "codec_fn",
    [
        lambda: FedSZCompressor(error_bound=1e-2),
        lambda: AdaptiveFedSZCompressor(AdaptiveErrorBoundController(initial_bound=1e-2)),
        lambda: DPFedSZCompressor(error_bound=1e-2),
    ],
    ids=["fedsz", "adaptive", "dp"],
)
def test_device_profile_models_codec_seconds_for_wrapping_codecs(codec_fn):
    """Regression: on a Raspberry-Pi-5 link the adaptive and DP wrappers
    reported this host's measured seconds (they exposed no ``config`` for the
    device rule to read) while plain FedSZ reported the Table-I model."""
    state = {"w": np.random.default_rng(0).standard_normal((256, 256)).astype(np.float32)}
    link = ClientLink(0, LinkSpec(device="raspberry-pi-5"))
    _, stats = transmit_update(state, codec_fn(), link)
    nbytes = 256 * 256 * 4
    assert stats.compress_seconds == RASPBERRY_PI_5.compression_seconds("sz2", nbytes, 1e-2)
    assert stats.decompress_seconds == RASPBERRY_PI_5.decompression_seconds("sz2", nbytes, 1e-2)
    assert stats.compress_seconds == pytest.approx(0.003705, rel=1e-3)
    # The runtime and the figure 7/8 estimators bill one model.
    estimate = link.spec.estimate_upload(
        nbytes, stats.payload_nbytes, compressor="sz2", error_bound=1e-2
    )
    assert (stats.compress_seconds, stats.decompress_seconds, stats.transfer_seconds) == (
        estimate.compress_seconds, estimate.decompress_seconds, estimate.transfer_seconds
    )


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_unmodellable_codec_on_a_device_link_is_rejected_at_construction(
    data, model_fn, executor, monkeypatch
):
    """Regression: a registered codec the Pi-5 table has no row for trained,
    compressed and decompressed, and only then died with a ``KeyError`` from
    the throughput lookup — inside a worker under the process executor."""
    import multiprocessing

    from repro.compression import registry
    from repro.compression.sz2 import SZ2Predictor
    from repro.core import IdentityCodec

    monkeypatch.setitem(registry._LOSSY_FACTORIES, "mycodec", None)  # restored on teardown
    registry.register_predictor("mycodec", SZ2Predictor)
    train, val = data
    config = FLConfig(num_clients=2, rounds=1, batch_size=16, seed=3, executor=executor)
    specs = [LinkSpec(), LinkSpec(device="raspberry-pi-5")]
    codec = FedSZCompressor(lossy_compressor="mycodec")
    with pytest.raises(ValueError, match="'raspberry-pi-5'.*'mycodec'"):
        FederatedRuntime(
            model_fn, train, val, config, codec=codec, transport=Transport.heterogeneous(specs)
        )
    assert multiprocessing.active_children() == []  # no worker was started
    # Host-measured combinations stay accepted: the same codec without a
    # device link, and a codec without a ``config`` on the device link.
    FederatedRuntime(model_fn, train, val, config, codec=codec).close()
    FederatedRuntime(
        model_fn, train, val, config, codec=IdentityCodec(),
        transport=Transport.heterogeneous(specs),
    ).close()


def test_adaptive_codec_config_follows_the_current_bound():
    controller = AdaptiveErrorBoundController(initial_bound=1e-2, patience=1)
    codec = AdaptiveFedSZCompressor(controller)
    assert codec.config.error_bound == codec.current_bound == 1e-2
    for accuracy in (0.5, 0.6, 0.7, 0.1):  # grow on progress, back off on the drop
        codec.observe_accuracy(accuracy)
        assert codec.config.error_bound == codec.current_bound
    assert {a.new_bound for a in controller.adjustments} != {1e-2}
    with pytest.raises(AttributeError):
        codec.config = None


# ----------------------------------------------------------------------
# Zero-byte transfers and dropped-update accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("latency", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("straggler_factor", [1.0, 10.0])
def test_zero_byte_transfer_still_pays_link_latency(latency, straggler_factor):
    """A zero-byte send is still a round trip: it must cost exactly the link
    latency (scaled by the straggler factor), never come back free."""
    link = ClientLink(
        0,
        LinkSpec(
            bandwidth_mbps=10.0,
            latency_seconds=latency,
            straggler_factor=straggler_factor,
        ),
    )
    assert link.spec.transmission_seconds(0) == pytest.approx(latency * straggler_factor)
    # The payload component is additive on top of the latency floor.
    assert link.spec.transmission_seconds(1_000_000) > link.spec.transmission_seconds(0)
    # The channel-send path bills the same arithmetic.
    record = link.send(0, description="empty")
    assert record.seconds == pytest.approx(latency * straggler_factor)


def test_empty_payload_send_through_codec_pays_latency():
    link = ClientLink(0, LinkSpec(bandwidth_mbps=10.0, latency_seconds=0.25))
    state = {"w": np.ones(16, dtype=np.float32)}
    _, stats = transmit_update(state, _EmptyPayloadCodec(), link)
    assert stats.payload_nbytes == 0
    assert stats.transfer_seconds == pytest.approx(0.25)


def test_dropped_updates_do_not_contribute_uplink_bytes(data, model_fn, monkeypatch):
    """Regression: RoundRecord.uplink_bytes summed over *all* results, so
    updates lost in transit inflated the server-ingress accounting."""
    train, val = data
    runtime = FederatedRuntime(
        model_fn, train, val,
        FLConfig(num_clients=4, rounds=1, batch_size=16, seed=3),
        transport=Transport.heterogeneous(
            [LinkSpec(dropout_probability=0.5) for _ in range(4)]
        ),
    )
    # Deterministically drop clients 1 and 3.
    monkeypatch.setattr(
        ClientLink, "roll_dropout", lambda self: self.client_id in (1, 3)
    )
    record = runtime.run_round()
    assert record.dropped_clients == 2
    delivered_bytes = sum(
        stat.payload_nbytes for stat in record.client_stats if stat.delivered
    )
    attempted_bytes = sum(stat.payload_nbytes for stat in record.client_stats)
    assert record.uplink_bytes == delivered_bytes
    assert record.uplink_bytes < attempted_bytes
    # Transfer *time* still counts every attempt: the link was occupied and
    # the synchronous server waited out the lost updates' windows.
    assert record.uplink_seconds == pytest.approx(
        sum(stat.transfer_seconds for stat in record.client_stats)
    )
