"""Tests for the Figure 2–10 experiment harnesses (reduced-size runs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    accuracy_cliff_bound,
    calibrate_scaling_inputs,
    crossover_for,
    default_bandwidths,
    final_accuracies,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
)


# ----------------------------------------------------------------------
# Figures 2 and 3 — data characterisation
# ----------------------------------------------------------------------
def test_figure2_weights_are_spikier_and_less_compressible():
    result = run_figure2(snippet_offsets=(501, 200_000), seed=0)
    weight_rows = result.filter(source="fl-weights")
    field_rows = result.filter(source="miranda-like")
    assert weight_rows and field_rows
    mean_weight_smoothness = np.mean([row["smoothness"] for row in weight_rows])
    mean_field_smoothness = np.mean([row["smoothness"] for row in field_rows])
    assert mean_weight_smoothness > 3 * mean_field_smoothness
    assert max(row["sz2_ratio"] for row in field_rows) > max(
        row["sz2_ratio"] for row in weight_rows
    )


def test_figure3_distribution_shapes():
    result = run_figure3(num_values=60_000)
    rows = {row["model"]: row for row in result.rows}
    assert rows["mobilenetv2"]["std"] > rows["alexnet"]["std"]
    for row in rows.values():
        assert row["excess_kurtosis"] > 0  # heavy tails
        assert row["fraction_within_0_05"] > 0.3


# ----------------------------------------------------------------------
# Figure 4 — convergence (small run)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure4():
    return run_figure4(
        compressors=(None, "sz2"),
        rounds=4,
        samples=360,
        num_clients=2,
        seed=1,
    )


def test_figure4_accuracy_improves_over_rounds(figure4):
    for label in ("uncompressed", "sz2"):
        accuracies = [row["accuracy"] for row in figure4.filter(compressor=label)]
        assert len(accuracies) == 4
        assert accuracies[-1] > accuracies[0]
        assert accuracies[-1] > 0.3  # clearly above the 10-class chance level


def test_figure4_sz2_tracks_uncompressed(figure4):
    finals = final_accuracies(figure4)
    assert abs(finals["sz2"] - finals["uncompressed"]) < 0.25


def test_figure4_uplink_smaller_with_compression(figure4):
    sz2_bytes = sum(row["uplink_mb"] for row in figure4.filter(compressor="sz2"))
    raw_bytes = sum(row["uplink_mb"] for row in figure4.filter(compressor="uncompressed"))
    assert sz2_bytes < raw_bytes


# ----------------------------------------------------------------------
# Figure 5 — accuracy vs bound
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure5():
    return run_figure5(
        error_bounds=(1e-4, 1e-2, 0.5),
        train_epochs=5,
        samples=360,
        seed=0,
    )


def test_figure5_flat_then_cliff(figure5):
    baseline = figure5.filter(fedsz=False)[0]["accuracy"]
    assert baseline > 0.6
    small_bound = figure5.filter(error_bound=1e-4)[0]
    recommended = figure5.filter(error_bound=1e-2)[0]
    huge_bound = figure5.filter(error_bound=0.5)[0]
    assert abs(small_bound["accuracy"] - baseline) < 0.05
    assert abs(recommended["accuracy"] - baseline) < 0.08
    assert huge_bound["accuracy"] < baseline - 0.3  # collapse at very large bounds
    assert accuracy_cliff_bound(figure5, drop_threshold=0.2) == pytest.approx(0.5)


def test_figure5_ratio_grows_with_bound(figure5):
    rows = sorted(figure5.filter(fedsz=True), key=lambda row: row["error_bound"])
    ratios = [row["ratio"] for row in rows]
    assert ratios == sorted(ratios)


# ----------------------------------------------------------------------
# Figure 6 — epoch breakdown
# ----------------------------------------------------------------------
def test_figure6_compression_overhead_is_small():
    result = run_figure6(combinations=(("resnet50", "cifar10"),), rounds=1, samples=240, seed=0)
    row = result.rows[0]
    assert row["compression_seconds"] > 0
    assert row["total_seconds"] > row["compression_seconds"]
    assert row["compression_overhead_percent"] < 30.0  # paper: <17% worst case


# ----------------------------------------------------------------------
# Figures 7 and 8 — communication time
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure7():
    return run_figure7(
        models=("alexnet",),
        error_bounds=(1e-4, 1e-2),
        max_elements_per_tensor=40_000,
        seed=0,
    )


def test_figure7_order_of_magnitude_savings(figure7):
    baseline = figure7.filter(model="alexnet", compressed=False)[0]
    recommended = figure7.filter(model="alexnet", error_bound=1e-2)[0]
    assert baseline["communication_seconds"] == pytest.approx(195.2, rel=0.02)  # 244 MB @ 10 Mbps
    assert recommended["speedup"] > 5.0
    assert recommended["communication_seconds"] < baseline["communication_seconds"] / 5


def test_figure7_tighter_bound_saves_less(figure7):
    loose = figure7.filter(model="alexnet", error_bound=1e-2)[0]
    tight = figure7.filter(model="alexnet", error_bound=1e-4)[0]
    assert loose["communication_seconds"] < tight["communication_seconds"]
    assert tight["speedup"] > 1.0  # still worthwhile at 10 Mbps


@pytest.fixture(scope="module")
def figure8():
    return run_figure8(
        compressors=("sz2", "zfp"),
        bandwidths_mbps=[1.0, 10.0, 100.0, 1000.0, 10_000.0],
        max_elements_per_tensor=40_000,
        seed=0,
    )


def test_figure8_compression_wins_at_low_bandwidth_only(figure8):
    def seconds(compressor, bandwidth):
        return [
            row["communication_seconds"]
            for row in figure8.filter(compressor=compressor)
            if row["bandwidth_mbps"] == bandwidth
        ][0]

    assert seconds("sz2", 10.0) < seconds("original", 10.0) / 5
    assert seconds("sz2", 10_000.0) > seconds("original", 10_000.0)


def test_figure8_crossover_band(figure8):
    crossover = crossover_for(figure8, "sz2")
    assert 10.0 <= crossover <= 1000.0
    assert any("worthwhile below" in note for note in figure8.notes)


def test_default_bandwidth_sweep_is_log_spaced():
    bandwidths = default_bandwidths(9)
    assert bandwidths[0] == pytest.approx(1.0)
    assert bandwidths[-1] == pytest.approx(10_000.0)
    ratios = [b2 / b1 for b1, b2 in zip(bandwidths, bandwidths[1:], strict=False)]
    assert all(ratio == pytest.approx(ratios[0], rel=1e-6) for ratio in ratios)


# ----------------------------------------------------------------------
# Figure 9 — scaling
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure9():
    return run_figure9(core_counts=(2, 8, 32, 128), seed=0)


def test_figure9_calibration_inputs():
    inputs = calibrate_scaling_inputs(seed=0)
    assert inputs["update_nbytes"] == 14_000_000
    assert 0 < inputs["compressed_nbytes"] < inputs["update_nbytes"]
    assert inputs["compress_seconds_per_client"] > 0


def test_figure9_weak_scaling_fedsz_flatter(figure9):
    fedsz = figure9.filter(experiment="weak", configuration="fedsz")
    raw = figure9.filter(experiment="weak", configuration="uncompressed")
    fedsz_growth = fedsz[-1]["epoch_seconds_per_client"] / fedsz[0]["epoch_seconds_per_client"]
    raw_growth = raw[-1]["epoch_seconds_per_client"] / raw[0]["epoch_seconds_per_client"]
    assert fedsz_growth < raw_growth
    for fedsz_row, raw_row in zip(fedsz, raw, strict=True):
        assert fedsz_row["epoch_seconds_per_client"] < raw_row["epoch_seconds_per_client"]


def test_figure9_strong_scaling_speedup_band(figure9):
    strong = figure9.filter(experiment="strong", configuration="fedsz")
    final = [row for row in strong if row["cores"] == 128][0]
    assert 4.0 < final["speedup"] < 20.0  # paper: 7.51x


# ----------------------------------------------------------------------
# Figure 10 — error distributions
# ----------------------------------------------------------------------
def test_figure10_laplace_like_errors():
    result = run_figure10(error_bounds=(0.5, 0.05), num_values=60_000, seed=0)
    rows = sorted(result.rows, key=lambda row: row["error_bound"])
    assert all(row["laplace_preferred"] for row in rows)
    assert rows[0]["max_abs_error"] < rows[1]["max_abs_error"]  # support shrinks with bound
    assert all(row["equivalent_epsilon"] > 0 for row in rows)
