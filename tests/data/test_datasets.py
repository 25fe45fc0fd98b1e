"""Tests for the synthetic dataset generators."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data import (
    PAPER_DATASET_SPECS,
    PAPER_DATASETS,
    DataLoader,
    dataset_spec,
    load_dataset,
    make_synthetic_dataset,
    partition_dataset,
)
from repro.data import datasets as datasets_module
from repro.data.datasets import SyntheticImageDataset, _generate_class_prototypes


def test_paper_dataset_specs_match_table4():
    cifar = dataset_spec("cifar10")
    assert cifar.num_samples == 60_000
    assert cifar.input_shape == (3, 32, 32)
    assert cifar.num_classes == 10

    fashion = dataset_spec("fashion-mnist")
    assert fashion.num_samples == 70_000
    assert fashion.input_shape == (1, 28, 28)
    assert fashion.num_classes == 10

    caltech = dataset_spec("caltech101")
    assert caltech.num_samples == 9_000
    assert caltech.input_shape == (3, 224, 224)
    assert caltech.num_classes == 101


def test_paper_datasets_tuple_covers_all_specs():
    assert set(PAPER_DATASETS) == set(PAPER_DATASET_SPECS)


def test_dataset_spec_row_format():
    row = dataset_spec("cifar10").as_row()
    assert row["input_dimension"] == "32 x 32"
    assert set(row) == {"dataset", "samples", "input_dimension", "classes"}


def test_dataset_spec_unknown_name():
    with pytest.raises(ValueError):
        dataset_spec("imagenet")


def test_load_dataset_respects_channels_and_classes():
    data = load_dataset("fashion-mnist", num_samples=128, image_size=16, seed=0)
    assert data.input_shape == (1, 16, 16)
    assert data.num_classes == 10
    assert len(data) == 128
    caltech = load_dataset("caltech101", num_samples=64, image_size=16, seed=0)
    assert caltech.num_classes == 101
    assert caltech.input_shape == (3, 16, 16)


def test_load_dataset_default_resolution_matches_spec():
    data = load_dataset("cifar10", num_samples=32, seed=0)
    assert data.input_shape == (3, 32, 32)


def test_dataset_generation_is_deterministic():
    a = load_dataset("cifar10", num_samples=64, image_size=8, seed=7)
    b = load_dataset("cifar10", num_samples=64, image_size=8, seed=7)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_different_seeds_produce_different_data():
    a = load_dataset("cifar10", num_samples=64, image_size=8, seed=1)
    b = load_dataset("cifar10", num_samples=64, image_size=8, seed=2)
    assert not np.array_equal(a.images, b.images)


def test_classes_are_separable_by_prototype():
    """Same-class samples must be closer to their class mean than to others."""
    data = make_synthetic_dataset("toy", 400, (3, 8, 8), num_classes=4, noise_scale=0.3, seed=0)
    means = np.stack([data.images[data.labels == c].mean(axis=0) for c in range(4)])
    correct = 0
    for image, label in zip(data.images, data.labels, strict=True):
        distances = ((means - image) ** 2).sum(axis=(1, 2, 3))
        correct += int(np.argmin(distances) == label)
    assert correct / len(data) > 0.9


def test_make_synthetic_dataset_validation():
    with pytest.raises(ValueError):
        make_synthetic_dataset("bad", 0, (3, 8, 8), 4)
    with pytest.raises(ValueError):
        make_synthetic_dataset("bad", 10, (3, 8, 8), 1)


def test_subset_and_split():
    data = load_dataset("cifar10", num_samples=100, image_size=8, seed=0)
    subset = data.subset(np.arange(10))
    assert len(subset) == 10
    train, val = data.split(0.8, seed=0)
    assert len(train) == 80
    assert len(val) == 20
    with pytest.raises(ValueError):
        data.split(1.5)


def test_dataset_getitem_and_mismatch():
    data = load_dataset("cifar10", num_samples=16, image_size=8, seed=0)
    image, label = data[3]
    assert image.shape == (3, 8, 8)
    assert 0 <= label < 10
    with pytest.raises(ValueError):
        SyntheticImageDataset("bad", np.zeros((4, 1, 2, 2)), np.zeros(3), 2)


def test_split_refuses_an_empty_side():
    """Rounding must not eat a side silently: an empty validation set makes a
    runtime report accuracy 0.0 / loss 0.0 every round with no error."""
    tiny = load_dataset("cifar10", num_samples=8, image_size=8, seed=0)
    with pytest.raises(ValueError, match="8 train, 0 validation"):
        tiny.split(0.95)
    with pytest.raises(ValueError, match="0 train, 8 validation"):
        tiny.split(0.05)
    train, validation = load_dataset("cifar10", num_samples=600, image_size=8, seed=0).split(0.75)
    assert (len(train), len(validation)) == (450, 150)


def _assert_reads_equal(side, images, labels, seed):
    """Every way of reading ``side`` gives the rows of ``images`` / ``labels``."""
    picks = np.random.default_rng(seed).permutation(len(side))[: max(1, len(side) // 3)]
    got_images, got_labels = side[picks]
    np.testing.assert_array_equal(got_images, images[picks])
    np.testing.assert_array_equal(got_labels, labels[picks])
    np.testing.assert_array_equal(side[picks[0]][0], images[picks[0]])
    shard = side.subset(picks)
    np.testing.assert_array_equal(shard.images, images[picks])
    np.testing.assert_array_equal(shard.labels, labels[picks])
    eager = SyntheticImageDataset("eager", images, labels, side.num_classes)
    loaders = [DataLoader(data, batch_size=16, seed=seed) for data in (side, eager)]
    for _ in range(2):  # two epochs, two shuffles
        for (got_images, got_labels), (want_images, want_labels) in zip(*loaders, strict=True):
            np.testing.assert_array_equal(got_images, want_images)
            np.testing.assert_array_equal(got_labels, want_labels)
    assert side.input_shape == images.shape[1:] and len(side) == len(images)


@pytest.mark.parametrize("fraction, seed", [(0.8, 0), (0.5, 3), (0.97, 7), (0.03, 11)])
@pytest.mark.parametrize("images_first", [True, False], ids=["images-first", "images-last"])
def test_split_sides_read_the_floats_an_eager_gather_reads(fraction, seed, images_first):
    """A side indexes the parent's pixels; every read of it is bit-equal to
    the same read of ``full.images[order[...]]``, before and after ``images``
    gathers, and a split of a side composes the two indexes."""
    full = load_dataset("cifar10", num_samples=150, image_size=4, seed=seed)
    order = np.random.default_rng(seed).permutation(len(full))
    cut = int(round(fraction * len(full)))
    for side, rows in zip(full.split(fraction, seed=seed), (order[:cut], order[cut:]), strict=True):
        images, labels = full.images[rows], full.labels[rows]
        if images_first:
            np.testing.assert_array_equal(side.images, images)
        _assert_reads_equal(side, images, labels, seed)
        np.testing.assert_array_equal(side.images, images)
        _assert_reads_equal(side, images, labels, seed + 1)
        if len(side) >= 4:
            inner = np.random.default_rng(seed + 2).permutation(len(side))
            inner_cut = int(round(0.5 * len(side)))
            halves = side.split(0.5, seed=seed + 2)
            for half, half_rows in zip(halves, (inner[:inner_cut], inner[inner_cut:]), strict=True):
                _assert_reads_equal(half, images[half_rows], labels[half_rows], seed)
                np.testing.assert_array_equal(half.images, images[half_rows])


def test_a_fleet_split_and_its_iid_partition_copy_no_pixels():
    """A one-sample-a-client fleet's set-up (split, then an IID partition
    across every train row) allocates a small fraction of the pixels."""
    clients = 20_000
    full = load_dataset("cifar10", num_samples=clients + 64, image_size=8, seed=0)
    tracemalloc.start()
    try:
        train, validation = full.split(clients / (clients + 64), seed=1)
        shards = partition_dataset(train, clients, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(train), len(validation), len(shards)) == (clients, 64, clients)
    assert shards.materialized_count == 0
    assert peak < 0.10 * full.images.nbytes, f"{peak} bytes vs {full.images.nbytes} of pixels"


def _one_draw_reference(num_samples, input_shape, num_classes, noise_scale, prototype_scale, seed):
    """``make_synthetic_dataset`` as it was: one whole-dataset noise draw."""
    rng = np.random.default_rng(seed)
    prototypes = _generate_class_prototypes(rng, num_classes, input_shape, prototype_scale)
    labels = rng.integers(0, num_classes, size=num_samples)
    noise = rng.normal(0.0, noise_scale, size=(num_samples, *input_shape)).astype(np.float32)
    return prototypes[labels] + noise, labels


def test_slab_wise_synthesis_is_bit_equal_to_one_draw():
    input_shape = (3, 16, 16)
    slab = datasets_module._NOISE_SLAB_VALUES // int(np.prod(input_shape))
    assert 1 < slab < 5_000  # 5 000 samples span several slabs
    for num_samples in (1, slab - 1, slab, slab + 1, 5_000):
        data = make_synthetic_dataset(
            "toy", num_samples, input_shape, num_classes=7, noise_scale=0.4,
            prototype_scale=0.8, seed=13,
        )
        images, labels = _one_draw_reference(num_samples, input_shape, 7, 0.4, 0.8, 13)
        assert data.images.dtype == np.float32 and data.labels.dtype == np.int64
        np.testing.assert_array_equal(data.images, images)
        np.testing.assert_array_equal(data.labels, labels)


def test_synthesis_slab_never_rounds_down_to_zero_samples(monkeypatch):
    """A sample larger than the slab budget is still drawn one at a time."""
    monkeypatch.setattr(datasets_module, "_NOISE_SLAB_VALUES", 10)
    data = make_synthetic_dataset("toy", 5, (1, 4, 4), num_classes=3, seed=2)
    images, _ = _one_draw_reference(5, (1, 4, 4), 3, 0.6, 1.0, 2)
    np.testing.assert_array_equal(data.images, images)
