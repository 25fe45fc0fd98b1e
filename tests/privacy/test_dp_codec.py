"""Tests for the differentially-private FedSZ codec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import partition_state_dict
from repro.nn.models import create_model
from repro.privacy import DPFedSZCompressor


@pytest.fixture(scope="module")
def state_dict():
    return create_model("alexnet", "tiny", num_classes=10, seed=2).state_dict()


def test_noise_scale_calibration():
    codec = DPFedSZCompressor(epsilon_per_round=2.0, clip_norm=0.5)
    assert codec.noise_scale == pytest.approx(0.25)


def test_epsilon_accounting_accumulates(state_dict):
    codec = DPFedSZCompressor(epsilon_per_round=1.5, clip_norm=0.5, seed=0)
    assert codec.spent_epsilon == 0.0
    codec.compress(state_dict)
    codec.compress(state_dict)
    assert codec.rounds_released == 2
    assert codec.spent_epsilon == pytest.approx(3.0)


def test_roundtrip_preserves_structure_and_metadata(state_dict):
    codec = DPFedSZCompressor(epsilon_per_round=5.0, clip_norm=0.5, seed=1)
    restored = codec.decompress(codec.compress(state_dict))
    assert set(restored) == set(state_dict)
    partition = partition_state_dict(state_dict)
    # Non-weight tensors are neither noised nor lossy-compressed.
    for name in partition.lossless:
        np.testing.assert_array_equal(restored[name], state_dict[name])


def test_weights_are_actually_perturbed(state_dict):
    codec = DPFedSZCompressor(epsilon_per_round=1.0, clip_norm=0.5, seed=3)
    restored = codec.decompress(codec.compress(state_dict))
    partition = partition_state_dict(state_dict)
    name = next(iter(partition.lossy))
    observed_noise = restored[name].astype(np.float64) - state_dict[name]
    # Noise scale 0.5 => std sqrt(2)*0.5; allow generous bands (compression
    # error is negligible at this scale).
    assert np.std(observed_noise) == pytest.approx(np.sqrt(2) * 0.5, rel=0.1)


def test_stronger_privacy_means_more_noise(state_dict):
    partition = partition_state_dict(state_dict)
    name = next(iter(partition.lossy))

    def noise_std(epsilon):
        codec = DPFedSZCompressor(epsilon_per_round=epsilon, clip_norm=0.5, seed=4)
        restored = codec.decompress(codec.compress(state_dict))
        return float(np.std(restored[name].astype(np.float64) - state_dict[name]))

    assert noise_std(0.5) > noise_std(5.0) * 2


def test_clipping_bounds_magnitudes(state_dict):
    codec = DPFedSZCompressor(epsilon_per_round=1e6, clip_norm=0.01, seed=5)  # ~no noise
    restored = codec.decompress(codec.compress(state_dict))
    partition = partition_state_dict(state_dict)
    for name in partition.lossy:
        assert float(np.max(np.abs(restored[name]))) < 0.02  # clip + tiny noise + codec error


def test_validation_errors():
    with pytest.raises(ValueError):
        DPFedSZCompressor(epsilon_per_round=0.0)
    with pytest.raises(ValueError):
        DPFedSZCompressor(clip_norm=0.0)
