"""Cross-module integration tests exercising the full FedSZ workflow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.errors import CorruptPayloadError
from repro.core import (
    AdaptiveErrorBoundController,
    AdaptiveFedSZCompressor,
    FedSZCompressor,
    select_lossy_compressor,
)
from repro.data import load_dataset
from repro.experiments import build_federated_setup
from repro.fl import FLConfig, FederatedRuntime
from repro.network import crossover_bandwidth_mbps
from repro.nn.models import create_model
from repro.privacy import DPFedSZCompressor, analyze_state_dict_errors


def test_full_workflow_compress_train_decide():
    """The README workflow: build a model, pick a compressor, run FL with it,
    and make the Eqn.-1 deployment decision — all against the public API."""
    # 1. Problem-1 selection on a weight sample says "use an SZ-family codec".
    weights = create_model("alexnet", "tiny", seed=0).state_dict()["features.0.weight"].ravel()
    selection = select_lossy_compressor(weights, error_bound=1e-2, bandwidth_mbps=10.0)
    assert selection.best.compressor in {"sz2", "sz3", "szx"}

    # 2. Federated training with the selected codec tracks the uncompressed
    #    baseline (Figure 4's claim).  Comparing against a same-seed raw run
    #    is robust to the round-to-round noise of a tiny 3-round simulation;
    #    the previous self-referential check (final vs first round) sat on a
    #    knife's edge and flipped with the compressor-selection timing.
    setup = build_federated_setup("resnet50", "cifar10", rounds=3, samples=360, seed=13)
    baseline = FederatedRuntime(
        setup.model_fn, setup.train_dataset, setup.validation_dataset, setup.config, codec=None
    ).run()
    setup = build_federated_setup("resnet50", "cifar10", rounds=3, samples=360, seed=13)
    codec = FedSZCompressor(error_bound=1e-2, lossy_compressor=selection.best.compressor)
    history = FederatedRuntime(
        setup.model_fn, setup.train_dataset, setup.validation_dataset, setup.config, codec=codec
    ).run()
    assert history.final_accuracy > baseline.final_accuracy - 0.15
    assert history.records[-1].mean_compression_ratio > 1.5

    # 3. The deployment decision derived from the measured payloads is
    #    consistent: worthwhile on an edge link, not at datacenter speeds.
    report = codec.report()
    crossover = crossover_bandwidth_mbps(
        report.original_nbytes,
        report.compressed_nbytes,
        report.compress_seconds,
        report.decompress_seconds or report.compress_seconds,
    )
    assert codec.is_worthwhile(min(10.0, crossover / 2)).worthwhile
    assert not codec.is_worthwhile(crossover * 10).worthwhile


def test_noniid_fl_with_fedsz_and_client_sampling():
    dataset = load_dataset("cifar10", num_samples=300, image_size=8, seed=3)
    train, validation = dataset.split(0.8, seed=4)
    config = FLConfig(
        num_clients=5,
        rounds=2,
        batch_size=16,
        partition_strategy="dirichlet",
        dirichlet_alpha=0.3,
        client_fraction=0.6,
        compress_downlink=True,
        seed=6,
    )
    codec = FedSZCompressor(error_bound=1e-2)
    history = FederatedRuntime(
        lambda: create_model("mobilenetv2", "tiny", num_classes=10, seed=8),
        train,
        validation,
        config,
        codec=codec,
    ).run()
    assert len(history) == 2
    assert all(record.participating_clients == 3 for record in history.records)
    assert all(record.downlink_bytes > 0 for record in history.records)
    assert history.total_uplink_bytes > 0


def test_adaptive_and_dp_codecs_in_federated_loop():
    setup = build_federated_setup("resnet50", "cifar10", rounds=2, samples=300, seed=17)
    adaptive = AdaptiveFedSZCompressor(AdaptiveErrorBoundController(initial_bound=1e-2))
    simulation = FederatedRuntime(
        setup.model_fn, setup.train_dataset, setup.validation_dataset, setup.config, codec=adaptive
    )
    for _ in range(2):
        record = simulation.run_round()
        adaptive.observe_accuracy(record.global_accuracy)
    assert len(adaptive.controller.adjustments) == 2

    dp_setup = build_federated_setup("resnet50", "cifar10", rounds=2, samples=300, seed=18)
    dp_codec = DPFedSZCompressor(epsilon_per_round=10.0, clip_norm=0.5, seed=2)
    dp_history = FederatedRuntime(
        dp_setup.model_fn,
        dp_setup.train_dataset,
        dp_setup.validation_dataset,
        dp_setup.config,
        codec=dp_codec,
    ).run()
    assert dp_codec.spent_epsilon == pytest.approx(
        10.0 * dp_history.records[-1].participating_clients * len(dp_history)
    )


def test_error_analysis_matches_pipeline_behaviour():
    """The privacy analysis and the pipeline agree on the error magnitude."""
    state = create_model("alexnet", "tiny", num_classes=10, seed=21).state_dict()
    distribution = analyze_state_dict_errors(state, error_bound=1e-2)
    largest_range = max(
        float(v.max() - v.min()) for k, v in state.items() if "weight" in k and v.size > 1024
    )
    assert 0 < distribution.max_abs_error <= 1e-2 * largest_range * 1.01


def test_corrupted_uplink_payload_is_detected():
    """A truncated FedSZ payload must fail loudly, not corrupt the model."""
    state = create_model("mobilenetv2", "tiny", num_classes=10, seed=4).state_dict()
    codec = FedSZCompressor(error_bound=1e-2)
    payload = codec.compress(state)
    with pytest.raises(CorruptPayloadError):
        codec.decompress(payload[: len(payload) // 2])


def test_cross_instance_decompression():
    """Payloads are self-describing: a fresh codec instance (different default
    configuration) can decode another instance's payload."""
    state = create_model("alexnet", "tiny", num_classes=10, seed=5).state_dict()
    sender = FedSZCompressor(error_bound=1e-3, lossy_compressor="sz3", lossless_compressor="xz")
    receiver = FedSZCompressor()  # defaults: sz2 + blosc-lz
    restored = receiver.decompress(sender.compress(state))
    assert set(restored) == set(state)
    for name, tensor in state.items():
        if "weight" in name and tensor.size > 1024:
            value_range = float(tensor.max() - tensor.min())
            assert np.max(np.abs(restored[name] - tensor)) <= 1e-3 * value_range * 1.01 + 1e-7
