"""Integration-style tests for the federated simulation loop."""

from __future__ import annotations

import pytest

from repro.core import FedSZCompressor, IdentityCodec
from repro.data import load_dataset
from repro.fl import FederatedRuntime, FLConfig
from repro.nn.models import create_model


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=320, image_size=8, seed=0)
    return full.split(0.75, seed=1)


@pytest.fixture
def model_fn():
    return lambda: create_model("resnet50", "tiny", num_classes=10, seed=7)


@pytest.fixture
def config():
    return FLConfig(
        num_clients=4,
        rounds=2,
        local_epochs=1,
        batch_size=32,
        learning_rate=0.05,
        bandwidth_mbps=10.0,
        seed=3,
    )


def test_simulation_runs_and_records_history(data, model_fn, config):
    train, val = data
    simulation = FederatedRuntime(model_fn, train, val, config, codec=None)
    history = simulation.run()
    assert len(history) == config.rounds
    assert len(simulation.clients) == config.num_clients
    record = history.records[0]
    assert record.uplink_bytes > 0
    assert record.uplink_seconds > 0
    assert record.train_seconds > 0
    assert 0.0 <= record.global_accuracy <= 1.0
    assert history.total_uplink_bytes == sum(r.uplink_bytes for r in history.records)


def test_simulation_with_fedsz_reduces_uplink_bytes(data, model_fn, config):
    train, val = data
    raw = FederatedRuntime(model_fn, train, val, config, codec=None).run(1)
    fedsz = FederatedRuntime(
        model_fn, train, val, config, codec=FedSZCompressor(error_bound=1e-2)
    ).run(1)
    assert fedsz.records[0].uplink_bytes < raw.records[0].uplink_bytes
    assert fedsz.records[0].uplink_seconds < raw.records[0].uplink_seconds
    assert fedsz.records[0].mean_compression_ratio > 1.0
    assert fedsz.records[0].compression_seconds > 0


def test_simulation_accuracy_with_and_without_compression_is_close(data, model_fn):
    """At the recommended 1e-2 bound, compression should not change the
    training trajectory dramatically (Figure 4's observation)."""
    train, val = data
    config = FLConfig(num_clients=2, rounds=2, batch_size=32, learning_rate=0.05, seed=5)
    raw_history = FederatedRuntime(model_fn, train, val, config, codec=None).run()
    fedsz_history = FederatedRuntime(
        model_fn, train, val, config, codec=FedSZCompressor(error_bound=1e-2)
    ).run()
    assert abs(raw_history.final_accuracy - fedsz_history.final_accuracy) < 0.25


def test_identity_codec_matches_no_codec_semantics(data, model_fn, config):
    train, val = data
    raw = FederatedRuntime(model_fn, train, val, config, codec=None).run(1)
    identity = FederatedRuntime(model_fn, train, val, config, codec=IdentityCodec()).run(1)
    # Identity codec serializes but does not compress, so accuracies match and
    # payloads stay in the same size class.
    assert identity.records[0].mean_compression_ratio == pytest.approx(1.0, rel=0.05)
    assert abs(raw.records[0].global_accuracy - identity.records[0].global_accuracy) < 1e-6


def test_simulation_is_seed_reproducible(data, model_fn, config):
    train, val = data
    history_a = FederatedRuntime(model_fn, train, val, config, codec=None).run(1)
    history_b = FederatedRuntime(model_fn, train, val, config, codec=None).run(1)
    assert history_a.records[0].global_accuracy == pytest.approx(
        history_b.records[0].global_accuracy, abs=1e-9
    )


def test_dirichlet_partition_strategy_runs(data, model_fn):
    train, val = data
    config = FLConfig(
        num_clients=3,
        rounds=1,
        partition_strategy="dirichlet",
        dirichlet_alpha=0.5,
        batch_size=16,
        seed=11,
    )
    history = FederatedRuntime(model_fn, train, val, config).run()
    assert len(history) == 1


def test_history_summaries(data, model_fn, config):
    train, val = data
    history = FederatedRuntime(model_fn, train, val, config, codec=FedSZCompressor()).run()
    assert history.final_accuracy == history.records[-1].global_accuracy
    assert history.best_accuracy >= history.final_accuracy - 1e-9
    assert history.total_compression_seconds > 0
    breakdown = history.mean_epoch_breakdown()
    assert breakdown.total_seconds > 0
    rows = history.as_rows()
    assert len(rows) == len(history)
    assert {"round", "accuracy", "uplink_mb"} <= set(rows[0])
    assert len(history.accuracies()) == config.rounds
