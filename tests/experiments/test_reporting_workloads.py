"""Tests for experiment reporting and shared workload builders."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments import (
    ExperimentResult,
    build_federated_setup,
    model_weight_sample,
    pretrained_like_state_dict,
    render_table,
    train_tiny_model,
)
from repro.core import partition_state_dict
from repro.nn import functional as F


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_experiment_result_rows_and_notes():
    result = ExperimentResult(name="demo", description="d")
    result.add_row(model="alexnet", ratio=12.5)
    result.add_row(model="resnet50", ratio=7.0)
    result.add_note("observation")
    assert result.column("ratio") == [12.5, 7.0]
    assert result.filter(model="alexnet")[0]["ratio"] == 12.5
    text = result.to_text()
    assert "demo" in text and "observation" in text and "alexnet" in text


def test_render_table_alignment_and_missing_values():
    rows = [{"a": 1, "b": 2.5}, {"a": 30, "c": "x"}]
    text = render_table(rows)
    lines = text.splitlines()
    assert len(lines) == 4  # header, separator, two rows
    assert "a" in lines[0] and "b" in lines[0] and "c" in lines[0]
    assert render_table([]) == "(no rows)"


def test_render_table_formats_extreme_floats():
    text = render_table([{"x": 1.23e-7, "y": 4.56e8, "z": float("nan")}])
    assert "e-07" in text and "e+08" in text and "nan" in text


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def test_pretrained_like_state_dict_preserves_structure():
    state = pretrained_like_state_dict("mobilenetv2", "cifar10", max_elements_per_tensor=None, seed=0)
    reference = pretrained_like_state_dict("mobilenetv2", "cifar10", max_elements_per_tensor=None, seed=0)
    assert set(state) == set(reference)
    # Heavy-tailed weight replacement is deterministic for a fixed seed.
    for name in state:
        np.testing.assert_array_equal(state[name], reference[name])
    # BatchNorm statistics keep their original values (not resampled).
    bn_names = [n for n in state if "running_var" in n]
    assert bn_names


def test_pretrained_like_state_dict_subsampling_caps_tensor_sizes():
    capped = pretrained_like_state_dict("alexnet", "cifar10", max_elements_per_tensor=10_000, seed=0)
    largest = max(v.size for v in capped.values())
    assert largest <= max(10_000, 4096)  # big weights capped, small tensors untouched
    partition = partition_state_dict(capped)
    assert partition.lossy  # still has lossy-eligible tensors


def test_pretrained_like_state_dict_dataset_changes_weights():
    a = pretrained_like_state_dict("mobilenetv2", "cifar10", 20_000, seed=0)
    b = pretrained_like_state_dict("mobilenetv2", "caltech101", 20_000, seed=0)
    weight_name = next(n for n, v in a.items() if "weight" in n and v.size > 1024)
    assert not np.array_equal(a[weight_name], b[weight_name])


def test_model_weight_sample_scales_differ_by_family():
    alexnet = model_weight_sample("alexnet", 50_000, seed=0)
    mobilenet = model_weight_sample("mobilenetv2", 50_000, seed=0)
    assert np.std(mobilenet) > 2 * np.std(alexnet)


def test_build_federated_setup_caltech_caps_classes():
    setup = build_federated_setup("resnet50", "caltech101", samples=200, seed=0)
    assert setup.train_dataset.labels.max() < 10
    model = setup.model_fn()
    logits = model.eval()(setup.validation_dataset.images[:2])
    assert logits.shape[1] == 10


def test_build_federated_setup_fashion_mnist_single_channel():
    setup = build_federated_setup("mobilenetv2", "fashion-mnist", samples=200, seed=0)
    assert setup.train_dataset.input_shape[0] == 1
    logits = setup.model_fn().eval()(setup.validation_dataset.images[:2])
    assert logits.shape == (2, 10)


def test_train_tiny_model_learns_and_evaluates():
    model, validation = train_tiny_model("resnet50", "cifar10", epochs=4, samples=300, seed=0)
    accuracy = F.accuracy(model.eval()(validation.images), validation.labels)
    assert accuracy > 0.5  # far above the 10-class chance level


@pytest.mark.parametrize("dataset", ["cifar10", "fashion-mnist"])
def test_federated_setup_is_reproducible(dataset):
    setup_a = build_federated_setup("mobilenetv2", dataset, samples=120, seed=5)
    setup_b = build_federated_setup("mobilenetv2", dataset, samples=120, seed=5)
    np.testing.assert_array_equal(setup_a.train_dataset.images, setup_b.train_dataset.images)
    state_a = setup_a.model_fn().state_dict()
    state_b = setup_b.model_fn().state_dict()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name])


def test_paper_scale_state_dict_is_the_same_under_any_hash_seed():
    # str hashes are salted per process; the dataset seed must not depend on them.
    script = (
        "import hashlib; from repro.experiments import pretrained_like_state_dict\n"
        "state = pretrained_like_state_dict('alexnet', 'cifar10', max_elements_per_tensor=4096)\n"
        "digest = hashlib.sha256()\n"
        "for name in state: digest.update(name.encode()); digest.update(state[name].tobytes())\n"
        "print(digest.hexdigest())"
    )
    digests = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
