"""Tests for client partitioning, data loading and scientific fields."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    DataLoader,
    dirichlet_partition,
    iid_partition,
    load_dataset,
    miranda_like_slice,
    partition_dataset,
    smoothness_score,
)
from repro.nn.models import synthetic_pretrained_weights


@pytest.fixture
def dataset():
    return load_dataset("cifar10", num_samples=200, image_size=8, seed=0)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def test_iid_partition_covers_all_samples_once(dataset):
    parts = iid_partition(dataset, 4, seed=0)
    combined = np.concatenate(parts)
    assert combined.size == len(dataset)
    assert np.unique(combined).size == len(dataset)
    sizes = [p.size for p in parts]
    assert max(sizes) - min(sizes) <= 1


def test_iid_partition_validation(dataset):
    with pytest.raises(ValueError):
        iid_partition(dataset, 0)
    with pytest.raises(ValueError):
        iid_partition(dataset, len(dataset) + 1)


def test_dirichlet_partition_is_disjoint_and_complete(dataset):
    parts = dirichlet_partition(dataset, 4, alpha=0.5, seed=0)
    combined = np.concatenate(parts)
    assert combined.size == len(dataset)
    assert np.unique(combined).size == len(dataset)
    assert all(p.size >= 2 for p in parts)


def test_dirichlet_lower_alpha_is_more_skewed(dataset):
    uniform_parts = partition_dataset(dataset, 4, strategy="dirichlet", alpha=100.0, seed=0)
    skewed_parts = partition_dataset(dataset, 4, strategy="dirichlet", alpha=0.1, seed=0)

    def skewness(parts):
        histogram = np.stack([np.bincount(part.labels, minlength=dataset.num_classes) for part in parts])
        proportions = histogram / np.maximum(histogram.sum(axis=1, keepdims=True), 1)
        return float(np.std(proportions, axis=0).mean())

    assert skewness(skewed_parts) > skewness(uniform_parts)


def test_partition_dataset_strategies(dataset):
    for strategy in ("iid", "dirichlet"):
        clients = partition_dataset(dataset, 4, strategy=strategy, seed=0)
        assert len(clients) == 4
        assert sum(len(c) for c in clients) == len(dataset)
    with pytest.raises(ValueError):
        partition_dataset(dataset, 4, strategy="sorted")


def test_dirichlet_partition_validation(dataset):
    with pytest.raises(ValueError):
        dirichlet_partition(dataset, 4, alpha=0.0)
    with pytest.raises(ValueError):
        dirichlet_partition(dataset, 0)


@pytest.mark.parametrize(
    "num_samples, num_clients",
    [(200, 4), (201, 4), (203, 4), (200, 200), (200, 1), (37, 36)],
    ids=["n%k=0", "n%k=1", "n%k=k-1", "k=n", "k=1", "one-pair"],
)
def test_vectorised_iid_partition_equals_the_array_split_loop(num_samples, num_clients):
    """Two row-sorted blocks reproduce ``np.array_split``'s layout exactly,
    their rows read in any order, and ``ClientShards.sizes`` (taken from the
    block shapes) is every index set's length."""
    data = load_dataset("cifar10", num_samples=num_samples, image_size=4, seed=0)
    order = np.random.default_rng(9).permutation(num_samples)
    reference = [np.sort(chunk) for chunk in np.array_split(order, num_clients)]
    parts = iid_partition(data, num_clients, seed=9)
    assert len(parts) == num_clients and parts.materialized_count == 0
    for client_id in np.random.default_rng(1).permutation(num_clients)[:3]:
        np.testing.assert_array_equal(parts[client_id - num_clients], reference[client_id])
    for part, expected in zip(parts, reference, strict=True):
        assert part.dtype == expected.dtype
        np.testing.assert_array_equal(part, expected)
    with pytest.raises(IndexError):
        parts[num_clients]
    sizes = partition_dataset(data, num_clients, seed=9).sizes
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [len(expected) for expected in reference]


@pytest.mark.parametrize("strategy", ["iid", "dirichlet"])
def test_partition_dataset_cuts_shards_on_first_access(dataset, strategy):
    """One return type for every strategy: sizes are known up front, a shard
    is ``dataset.subset(indices)`` cut when first read, then cached."""
    partitioner = iid_partition if strategy == "iid" else dirichlet_partition
    index_sets = partitioner(dataset, 5, seed=3)
    shards = partition_dataset(dataset, 5, strategy=strategy, seed=3)
    assert len(shards) == 5
    assert shards.sizes.tolist() == [len(indices) for indices in index_sets]
    assert shards.materialized_count == 0
    shard = shards[2]
    assert shards.materialized_count == 1
    assert shards[2] is shard and shards[-3] is shard
    np.testing.assert_array_equal(shard.images, dataset.images[index_sets[2]])
    np.testing.assert_array_equal(shard.labels, dataset.labels[index_sets[2]])
    assert [len(s) for s in shards[1:3]] == shards.sizes[1:3].tolist()
    assert sum(len(s) for s in shards) == len(dataset)  # iteration cuts the rest
    assert shards.materialized_count == 5
    with pytest.raises(IndexError):
        shards[5]


# ----------------------------------------------------------------------
# DataLoader
# ----------------------------------------------------------------------
def test_loader_batches_cover_dataset(dataset):
    loader = DataLoader(dataset, batch_size=32, shuffle=True, seed=0)
    seen = 0
    for images, labels in loader:
        assert images.shape[0] == labels.shape[0]
        seen += labels.shape[0]
    assert seen == len(dataset)
    assert len(loader) == 7  # ceil(200 / 32)


def test_loader_drop_last(dataset):
    loader = DataLoader(dataset, batch_size=32, drop_last=True, seed=0)
    batches = list(loader)
    assert len(batches) == 6
    assert all(images.shape[0] == 32 for images, _ in batches)


def test_loader_shuffle_changes_order_between_epochs(dataset):
    loader = DataLoader(dataset, batch_size=200, shuffle=True, seed=0)
    first_epoch = next(iter(loader))[1]
    second_epoch = next(iter(loader))[1]
    assert not np.array_equal(first_epoch, second_epoch)


def test_loader_no_shuffle_preserves_order(dataset):
    loader = DataLoader(dataset, batch_size=50, shuffle=False)
    labels = np.concatenate([batch_labels for _, batch_labels in loader])
    np.testing.assert_array_equal(labels, dataset.labels)


def test_loader_rejects_bad_batch_size(dataset):
    with pytest.raises(ValueError):
        DataLoader(dataset, batch_size=0)


@settings(max_examples=20, deadline=None)
@given(batch_size=st.integers(min_value=1, max_value=64), drop_last=st.booleans())
def test_loader_length_matches_iteration(batch_size, drop_last):
    dataset = load_dataset("cifar10", num_samples=100, image_size=4, seed=0)
    loader = DataLoader(dataset, batch_size=batch_size, drop_last=drop_last, seed=0)
    assert len(list(loader)) == len(loader)


# ----------------------------------------------------------------------
# Scientific data and smoothness (Figure 2 support)
# ----------------------------------------------------------------------
def test_miranda_like_fields_shapes():
    assert miranda_like_slice(length=256, field="density").shape == (256,)
    assert miranda_like_slice(length=256, field="velocity").shape == (256,)
    with pytest.raises(ValueError):
        miranda_like_slice(field="pressure")


def test_model_weights_are_spikier_than_scientific_data():
    """The Figure 2 contrast: FL parameters vary far more point to point."""
    weights = synthetic_pretrained_weights("alexnet", num_values=5000, seed=0)
    density = miranda_like_slice(length=5000, field="density", seed=0)
    assert smoothness_score(weights) > 5 * smoothness_score(density)


def test_smoothness_score_edge_cases():
    assert smoothness_score(np.array([1.0])) == 0.0
    assert smoothness_score(np.full(100, 3.14)) == 0.0
