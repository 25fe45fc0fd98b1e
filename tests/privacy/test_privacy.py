"""Tests for the compression-error / differential-privacy analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.workloads import model_weight_sample
from repro.nn.models import create_model, synthetic_pretrained_weights
from repro.privacy import (
    analyze_array_errors,
    analyze_state_dict_errors,
    client_round_rng,
    compression_errors_for_array,
    equivalent_epsilon,
    error_histogram,
    fit_laplace,
    laplace_mechanism,
    perturb_state_dict_with_laplace,
)
from repro.privacy.laplace import _ks_statistic


@pytest.fixture(scope="module")
def weights():
    return synthetic_pretrained_weights("alexnet", num_values=60_000, seed=0)


# ----------------------------------------------------------------------
# Laplace fitting
# ----------------------------------------------------------------------
def test_fit_recovers_known_laplace_parameters(rng):
    sample = rng.laplace(0.02, 0.05, 50_000)
    fit = fit_laplace(sample)
    assert fit.location == pytest.approx(0.02, abs=0.005)
    assert fit.scale == pytest.approx(0.05, rel=0.05)
    assert fit.closer_to_laplace_than_normal
    assert fit.sample_size == 50_000


def test_fit_distinguishes_gaussian_from_laplace(rng):
    gaussian = rng.normal(0.0, 1.0, 50_000)
    fit = fit_laplace(gaussian)
    assert not fit.closer_to_laplace_than_normal


# ``scipy.stats.kstest(sample, "laplace" | "norm", args=fitted).statistic``
# (scipy 1.17.1), recorded once so that the tests need no scipy.
@pytest.mark.parametrize(
    "draw, ks_laplace, ks_normal",
    [
        (lambda g: g.laplace(0.02, 0.05, 2000), 0.018494717943219774, 0.062397790831940525),
        (lambda g: g.normal(0.0, 1.0, 2000), 0.04644660219060737, 0.01821084781054516),
    ],
    ids=["laplace", "normal"],
)
def test_ks_statistics_equal_scipy_kstest(draw, ks_laplace, ks_normal):
    fit = fit_laplace(draw(np.random.default_rng(42)))
    assert fit.ks_statistic == pytest.approx(ks_laplace, abs=1e-12)
    assert fit.ks_statistic_normal == pytest.approx(ks_normal, abs=1e-12)


def test_figure10_ks_statistics_equal_scipy_kstest():
    """Figure 10's rows at ``num_values=60_000``, as scipy's ``kstest`` read them."""
    recorded = {
        0.5: (0.020308192495683164, 0.12280026557488394),
        0.1: (0.01717954348267897, 0.09634154761545599),
        0.05: (0.010632446983805666, 0.07770419944596041),
    }
    weights = model_weight_sample("alexnet", num_values=60_000, seed=0)
    for distribution in analyze_array_errors(weights, list(recorded), compressor="sz2"):
        ks_laplace, ks_normal = recorded[distribution.error_bound]
        assert distribution.fit.ks_statistic == pytest.approx(ks_laplace, abs=1e-12)
        assert distribution.fit.ks_statistic_normal == pytest.approx(ks_normal, abs=1e-12)


def test_fit_requires_minimum_samples():
    with pytest.raises(ValueError):
        fit_laplace(np.zeros(3))


def test_fit_of_a_constant_sample_keeps_a_positive_scale():
    fit = fit_laplace(np.full(20, 0.25))
    assert fit.location == 0.25
    assert fit.scale > 0.0
    assert np.isfinite(fit.ks_statistic) and np.isfinite(fit.ks_statistic_normal)


def test_ks_statistic_of_the_plotting_positions_is_half_a_step():
    # A hypothesised CDF through the middle of every empirical step is off by 1/(2n).
    count = 40
    cdf_values = (np.arange(count) + 0.5) / count
    assert _ks_statistic(cdf_values) == pytest.approx(0.5 / count, abs=1e-15)
    assert _ks_statistic(np.zeros(count)) == pytest.approx(1.0)


def test_laplace_fit_row_holds_every_field(rng):
    fit = fit_laplace(rng.laplace(0.0, 0.1, 1000))
    assert fit.as_row() == {
        "location": fit.location,
        "scale": fit.scale,
        "ks_laplace": fit.ks_statistic,
        "ks_normal": fit.ks_statistic_normal,
        "samples": 1000,
    }


def test_error_histogram_is_a_density(rng):
    sample = rng.laplace(0.0, 0.1, 10_000)
    histogram = error_histogram(sample, bins=41)
    widths = np.diff(histogram["edges"])
    assert np.sum(histogram["density"] * widths) == pytest.approx(1.0, rel=1e-6)
    assert histogram["centers"].shape == histogram["density"].shape


# ----------------------------------------------------------------------
# Compression errors (Figure 10)
# ----------------------------------------------------------------------
def test_compression_errors_are_bounded_and_centered(weights):
    errors = compression_errors_for_array(weights, 0.05, compressor="sz2")
    value_range = float(weights.max() - weights.min())
    assert np.abs(errors).max() <= 0.05 * value_range * 1.01
    # The zero-anchored quantization grid keeps the error population centred.
    assert abs(float(np.mean(errors))) < 0.05 * value_range * 0.2


def test_error_scale_grows_with_bound(weights):
    distributions = analyze_array_errors(weights, [0.05, 0.1, 0.5], compressor="sz2")
    scales = [d.fit.scale for d in distributions]
    assert scales[0] < scales[1] < scales[2]
    rows = [d.as_row() for d in distributions]
    assert all({"laplace_scale", "ks_laplace", "max_abs_error"} <= set(row) for row in rows)


def test_errors_resemble_laplace_more_than_normal(weights):
    """The Figure 10 observation: SZ2 error histograms look Laplacian."""
    distribution = analyze_array_errors(weights, [0.1], compressor="sz2")[0]
    assert distribution.fit.closer_to_laplace_than_normal


def test_state_dict_error_analysis():
    state = create_model("alexnet", "tiny", num_classes=10, seed=0).state_dict()
    distribution = analyze_state_dict_errors(state, error_bound=1e-2)
    assert distribution.errors.size > 1000
    assert distribution.max_abs_error > 0
    histogram = distribution.histogram(bins=21)
    assert histogram["density"].size == 21


# ----------------------------------------------------------------------
# Differential-privacy scaffolding
# ----------------------------------------------------------------------
def test_laplace_mechanism_noise_scale(rng):
    values = np.zeros(200_000)
    noisy = laplace_mechanism(values, sensitivity=1.0, epsilon=2.0, rng=rng)
    # Laplace(b = Δ/ε = 0.5) has standard deviation sqrt(2) * b.
    assert np.std(noisy) == pytest.approx(np.sqrt(2) * 0.5, rel=0.02)


def test_laplace_mechanism_validation():
    with pytest.raises(ValueError):
        laplace_mechanism(np.zeros(3), sensitivity=0.0, epsilon=1.0)
    with pytest.raises(ValueError):
        laplace_mechanism(np.zeros(3), sensitivity=1.0, epsilon=0.0)


def test_laplace_mechanism_refuses_unseeded_noise():
    """Regression: the old `rng or default_rng()` fallback silently produced
    irreproducible DP noise; an explicit rng or seed is now required."""
    with pytest.raises(ValueError, match="rng or integer seed"):
        laplace_mechanism(np.zeros(3), sensitivity=1.0, epsilon=1.0)


def test_laplace_mechanism_is_reproducible_from_seed():
    values = np.linspace(-1.0, 1.0, 64)
    first = laplace_mechanism(values, sensitivity=1.0, epsilon=1.0, rng=123)
    second = laplace_mechanism(values, sensitivity=1.0, epsilon=1.0, rng=123)
    np.testing.assert_array_equal(first, second)
    different = laplace_mechanism(values, sensitivity=1.0, epsilon=1.0, rng=124)
    assert not np.array_equal(first, different)


def test_client_round_rng_substreams():
    """Per-(client, round) substreams are reproducible and independent: the
    same triple always yields the same draws, any differing component yields a
    different stream, and draw order across clients cannot matter."""
    base = client_round_rng(0, client_id=3, round_index=5).laplace(size=16)
    np.testing.assert_array_equal(
        base, client_round_rng(0, client_id=3, round_index=5).laplace(size=16)
    )
    for seed, client_id, round_index in [(1, 3, 5), (0, 4, 5), (0, 3, 6)]:
        other = client_round_rng(seed, client_id, round_index).laplace(size=16)
        assert not np.array_equal(base, other)


def test_equivalent_epsilon_inverse_relationship(rng):
    small_noise = rng.laplace(0.0, 0.01, 20_000)
    large_noise = rng.laplace(0.0, 0.1, 20_000)
    small = equivalent_epsilon(small_noise, sensitivity=1.0)
    large = equivalent_epsilon(large_noise, sensitivity=1.0)
    assert small.epsilon > large.epsilon  # less noise => weaker (larger-ε) privacy
    assert large.epsilon == pytest.approx(10.0, rel=0.1)
    assert {"noise_scale", "sensitivity", "epsilon"} == set(small.as_row())


def test_equivalent_epsilon_validation(rng):
    with pytest.raises(ValueError):
        equivalent_epsilon(rng.laplace(0, 0.1, 100), sensitivity=0.0)


def test_perturb_state_dict_with_laplace():
    state = create_model("mobilenetv2", "tiny", num_classes=10, seed=0).state_dict()
    perturbed = perturb_state_dict_with_laplace(state, noise_scale=0.01, seed=1)
    assert set(perturbed) == set(state)
    float_changed = [
        name
        for name, tensor in state.items()
        if np.issubdtype(tensor.dtype, np.floating)
        and not np.allclose(perturbed[name], tensor)
    ]
    assert float_changed
    for name, tensor in state.items():
        if np.issubdtype(tensor.dtype, np.integer):
            np.testing.assert_array_equal(perturbed[name], tensor)
    # Zero scale is a no-op.
    unchanged = perturb_state_dict_with_laplace(state, noise_scale=0.0)
    for name in state:
        np.testing.assert_array_equal(unchanged[name], state[name])
    with pytest.raises(ValueError):
        perturb_state_dict_with_laplace(state, noise_scale=-1.0)
