"""Tests for the federated client and server."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.datasets import SyntheticImageDataset
from repro.fl import FLClient, FLConfig, FLServer
from repro.nn.models import create_model
from repro.nn.module import Module


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("cifar10", num_samples=160, image_size=8, seed=0)


@pytest.fixture
def model_fn():
    return lambda: create_model("resnet50", "tiny", num_classes=10, seed=4)


def test_client_requires_nonempty_dataset(dataset, model_fn):
    with pytest.raises(ValueError):
        FLClient(0, model_fn, dataset.subset(np.array([], dtype=np.int64)), FLConfig())


def test_client_training_returns_update(dataset, model_fn):
    config = FLConfig(num_clients=1, rounds=1, local_epochs=1, batch_size=32, learning_rate=0.05)
    client = FLClient(0, model_fn, dataset, config, seed=1)
    global_state = model_fn().state_dict()
    update = client.train(global_state)
    assert update.client_id == 0
    assert update.num_samples == len(dataset)
    assert update.train_seconds > 0
    assert np.isfinite(update.train_loss)
    assert set(update.state_dict) == set(global_state)
    # Training must actually move the weights away from the broadcast state.
    moved = any(
        not np.allclose(update.state_dict[name], global_state[name])
        for name in global_state
        if name.endswith("weight")
    )
    assert moved


def test_client_training_starts_from_global_state(dataset, model_fn):
    """Two different clients starting from the same global state and data
    produce identical updates when their loaders share a seed."""
    config = FLConfig(num_clients=1, rounds=1, batch_size=64, learning_rate=0.01, momentum=0.0)
    global_state = model_fn().state_dict()
    client_a = FLClient(0, model_fn, dataset, config, seed=9)
    client_b = FLClient(1, model_fn, dataset, config, seed=9)
    update_a = client_a.train(global_state)
    update_b = client_b.train(global_state)
    for name in update_a.state_dict:
        np.testing.assert_allclose(
            update_a.state_dict[name], update_b.state_dict[name], atol=1e-6
        )


def test_client_evaluate(dataset, model_fn):
    client = FLClient(0, model_fn, dataset, FLConfig(), seed=0)
    metrics = client.evaluate(model_fn().state_dict())
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert metrics["num_samples"] == len(dataset)


def test_client_evaluate_is_chunked_and_deterministic(dataset, model_fn):
    """Bounded-memory evaluation: a dataset that fits one batch reproduces the
    one-shot forward bit for bit; smaller batches stay deterministic and agree
    with the one-shot metrics to float tolerance (only the final classifier
    matmul is sensitive to the row count it sees)."""
    from repro.nn import functional as F
    from repro.nn.losses import CrossEntropyLoss

    state = model_fn().state_dict()
    model = model_fn()
    model.load_state_dict(dict(state))
    model.eval()
    logits = model(dataset.images)
    one_shot_loss = CrossEntropyLoss()(logits, dataset.labels)
    one_shot_accuracy = F.accuracy(logits, dataset.labels)

    big = FLClient(0, model_fn, dataset, FLConfig(eval_batch_size=1024), seed=0)
    metrics = big.evaluate(state)
    assert metrics["loss"] == one_shot_loss
    assert metrics["accuracy"] == one_shot_accuracy

    small = FLClient(0, model_fn, dataset, FLConfig(eval_batch_size=32), seed=0)
    chunked = small.evaluate(state)
    assert chunked == small.evaluate(state)  # chunking is deterministic
    np.testing.assert_allclose(chunked["loss"], one_shot_loss, rtol=1e-6)
    assert chunked["accuracy"] == one_shot_accuracy
    assert chunked["num_samples"] == float(len(dataset))


def test_loader_rng_state_roundtrip(dataset):
    """The public DataLoader RNG accessors capture and restore the shuffle
    stream: batches drawn after a restore replay the captured future."""
    from repro.data.loader import DataLoader

    loader = DataLoader(dataset, batch_size=32, shuffle=True, seed=5)
    iter(loader)  # advance the stream past its first epoch shuffle
    state = loader.get_rng_state()
    first = [labels.copy() for _, labels in loader]
    loader.set_rng_state(state)
    replay = [labels.copy() for _, labels in loader]
    assert len(first) == len(replay)
    for a, b in zip(first, replay):
        np.testing.assert_array_equal(a, b)


def test_server_aggregate_and_evaluate(dataset, model_fn):
    server = FLServer(model_fn, validation_dataset=dataset, eval_batch_size=64)
    state_a = create_model("resnet50", "tiny", num_classes=10, seed=1).state_dict()
    state_b = create_model("resnet50", "tiny", num_classes=10, seed=2).state_dict()
    aggregated = server.aggregate([state_a, state_b], client_weights=[1, 1])
    installed = server.global_state()
    for name in aggregated:
        np.testing.assert_allclose(installed[name], aggregated[name], atol=1e-6)
    result = server.evaluate()
    assert 0.0 <= result.accuracy <= 1.0
    assert result.num_samples == len(dataset)
    assert result.seconds > 0


def test_server_evaluate_without_dataset_raises(model_fn):
    server = FLServer(model_fn)
    with pytest.raises(ValueError):
        server.evaluate()


# ----------------------------------------------------------------------
# The evaluation pool: same numbers at any width, the serial error
# ----------------------------------------------------------------------
def _numbers(result):
    return result.loss, result.accuracy, result.num_samples


def test_evaluation_is_the_same_at_any_lane_count_and_on_any_thread(
    dataset, model_fn, monkeypatch
):
    """160 samples in batches of 16 are ten units of work: one, two or four
    lanes as the host has cores, and the serial loop off the main thread."""
    states = [create_model("resnet50", "tiny", num_classes=10, seed=s).state_dict() for s in (1, 2)]
    results = {}
    for lanes in (1, 2, 4):
        monkeypatch.setattr(os, "cpu_count", lambda lanes=lanes: lanes)
        server = FLServer(model_fn, dataset, eval_batch_size=16)
        results[lanes] = []
        for state in states:  # replicas are built once and reloaded every call
            server.set_global_state(state)
            results[lanes].append(_numbers(server.evaluate()))
        assert len(server._replicas) == lanes - 1
    off_main = []
    worker = threading.Thread(target=lambda: off_main.append(_numbers(server.evaluate())))
    worker.start()
    worker.join()
    assert results[1] == results[2] == results[4]
    assert results[1][0] != results[1][1] and off_main == results[1][1:]


def test_the_replicas_are_copies_not_new_models(dataset, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    built = []

    def counting_model_fn():
        built.append(None)
        return create_model("resnet50", "tiny", num_classes=10, seed=4)

    server = FLServer(counting_model_fn, dataset, eval_batch_size=32)
    server.evaluate()
    server.evaluate()
    assert len(built) == 1 and len(server._replicas) == 3


class _NaNGuard(Module):
    """A model that refuses a batch holding a NaN, naming the row."""

    def __init__(self, inner: Module) -> None:
        super().__init__()
        self.inner = inner

    def forward(self, inputs):
        rows = np.flatnonzero(np.isnan(inputs).reshape(len(inputs), -1).any(axis=1))
        if rows.size:
            raise FloatingPointError(f"NaN in row {rows[0]} of a batch of {len(inputs)}")
        return self.inner(inputs)


def test_a_failing_lane_raises_the_serial_error_and_joins_its_threads(
    dataset, model_fn, monkeypatch
):
    """Batch 2 (lane 0 of two) fails at row 8, batch 8 (lane 1) at row 2: the
    caller sees the first failure in batch order, as the serial loop does."""
    images = dataset.images.copy()
    images[[40, 130], 0, 0, 0] = np.nan
    poisoned = SyntheticImageDataset("poisoned", images, dataset.labels, dataset.num_classes)
    errors = []
    for lanes in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda lanes=lanes: lanes)
        server = FLServer(lambda: _NaNGuard(model_fn()), poisoned, eval_batch_size=16)
        before = threading.active_count()
        with pytest.raises(FloatingPointError) as raised:
            server.evaluate()
        assert threading.active_count() == before
        errors.append(raised.value)
    assert str(errors[0]) == str(errors[1]) == "NaN in row 8 of a batch of 16"


@pytest.mark.parametrize(
    "field, value",
    [
        ("eval_batch_size", 0),
        ("eval_batch_size", -8),
        ("momentum", -0.1),
        ("momentum", 1.0),
        ("weight_decay", -1e-4),
        ("dirichlet_alpha", 0.0),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("weight_decay", float("nan")),
        ("weight_decay", float("inf")),
        ("dirichlet_alpha", float("nan")),
        ("dirichlet_alpha", float("inf")),
        ("num_clients", 2.5),
        ("num_clients", 4.0),
        ("num_clients", "4"),
        ("local_epochs", float("nan")),
        ("batch_size", 2.5),
        ("rounds", float("inf")),
        ("eval_batch_size", 1.5),
        ("max_workers", float("nan")),
    ],
)
def test_flconfig_rejects_nonsense_at_construction(field, value):
    """Values that used to fail mid-round (or silently do nothing) are refused
    before any client trains, naming the field."""
    with pytest.raises(ValueError, match=field):
        FLConfig(**{field: value})


def test_flconfig_validation():
    with pytest.raises(ValueError):
        FLConfig(num_clients=0)
    with pytest.raises(ValueError):
        FLConfig(rounds=0)
    with pytest.raises(ValueError):
        FLConfig(partition_strategy="random")
    with pytest.raises(ValueError):
        FLConfig(bandwidth_mbps=0)
    with pytest.raises(ValueError):
        FLConfig(learning_rate=0)
    # The model-pool bound is gone with the thread executor, not ignored.
    with pytest.raises(TypeError, match="max_resident_models"):
        FLConfig(max_resident_models=2)
