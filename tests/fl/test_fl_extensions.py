"""Tests for client sampling, downlink compression and LR decay in the FL loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FedSZCompressor
from repro.data import load_dataset
from repro.fl import FLConfig, FederatedRuntime
from repro.nn.models import create_model


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=240, image_size=8, seed=0)
    return full.split(0.75, seed=1)


@pytest.fixture
def model_fn():
    return lambda: create_model("resnet50", "tiny", num_classes=10, seed=9)


def test_client_fraction_samples_subset(data, model_fn):
    train, val = data
    config = FLConfig(num_clients=4, rounds=2, client_fraction=0.5, batch_size=16, seed=2)
    simulation = FederatedRuntime(model_fn, train, val, config)
    history = simulation.run()
    assert all(record.participating_clients == 2 for record in history.records)


def test_client_fraction_one_uses_everyone(data, model_fn):
    train, val = data
    config = FLConfig(num_clients=3, rounds=1, batch_size=16, seed=2)
    history = FederatedRuntime(model_fn, train, val, config).run()
    assert history.records[0].participating_clients == 3


def test_client_fraction_validation():
    with pytest.raises(ValueError):
        FLConfig(client_fraction=0.0)
    with pytest.raises(ValueError):
        FLConfig(client_fraction=1.5)
    with pytest.raises(ValueError):
        FLConfig(learning_rate_decay=0.0)


def test_downlink_compression_reduces_broadcast_bytes(data, model_fn):
    train, val = data
    codec = FedSZCompressor(error_bound=1e-2)
    raw_config = FLConfig(num_clients=2, rounds=1, batch_size=16, compress_downlink=False, seed=3)
    compressed_config = FLConfig(num_clients=2, rounds=1, batch_size=16, compress_downlink=True, seed=3)
    raw_history = FederatedRuntime(model_fn, train, val, raw_config, codec=codec).run()
    compressed_history = FederatedRuntime(model_fn, train, val, compressed_config, codec=codec).run()
    assert raw_history.records[0].downlink_bytes > 0
    assert compressed_history.records[0].downlink_bytes < raw_history.records[0].downlink_bytes
    assert compressed_history.records[0].downlink_seconds < raw_history.records[0].downlink_seconds


def test_downlink_compression_without_codec_is_raw(data, model_fn):
    train, val = data
    config = FLConfig(num_clients=2, rounds=1, batch_size=16, compress_downlink=True, seed=3)
    history = FederatedRuntime(model_fn, train, val, config, codec=None).run()
    state_nbytes = sum(v.nbytes for v in model_fn().state_dict().values())
    assert history.records[0].downlink_bytes == 2 * state_nbytes


def test_downlink_compression_still_learns(data, model_fn):
    train, val = data
    config = FLConfig(
        num_clients=2, rounds=3, batch_size=16, local_epochs=2, learning_rate=0.1,
        compress_downlink=True, seed=4,
    )
    history = FederatedRuntime(model_fn, train, val, config, codec=FedSZCompressor(1e-2)).run()
    assert history.final_accuracy >= history.records[0].global_accuracy - 0.05


def test_learning_rate_decay_changes_trajectory(data, model_fn):
    train, val = data
    base = FLConfig(num_clients=2, rounds=3, batch_size=16, learning_rate=0.1, seed=5)
    decayed = FLConfig(
        num_clients=2, rounds=3, batch_size=16, learning_rate=0.1, learning_rate_decay=0.1, seed=5
    )
    history_base = FederatedRuntime(model_fn, train, val, base).run()
    history_decay = FederatedRuntime(model_fn, train, val, decayed).run()
    # First round identical (same LR), later rounds diverge.
    assert history_base.records[0].global_accuracy == pytest.approx(
        history_decay.records[0].global_accuracy, abs=1e-9
    )
    assert not np.isclose(
        history_base.records[-1].global_loss, history_decay.records[-1].global_loss
    )


def test_sampling_is_reproducible(data, model_fn):
    train, val = data
    config = FLConfig(num_clients=4, rounds=2, client_fraction=0.5, batch_size=16, seed=7)
    history_a = FederatedRuntime(model_fn, train, val, config).run()
    history_b = FederatedRuntime(model_fn, train, val, config).run()
    for record_a, record_b in zip(history_a.records, history_b.records, strict=True):
        assert record_a.global_accuracy == pytest.approx(record_b.global_accuracy, abs=1e-9)
