"""Tests for device profiles, communication estimates and the scaling model."""

from __future__ import annotations

import pytest

from repro.fl.history import EpochTimeBreakdown
from repro.network import (
    RASPBERRY_PI_5,
    DeviceProfile,
    LinkSpec,
    ScalingConfig,
    get_device_profile,
    speedup_curve,
    strong_scaling,
    weak_scaling,
)


# ----------------------------------------------------------------------
# Device profiles
# ----------------------------------------------------------------------
def test_raspberry_pi_profile_matches_table1_runtime():
    """Table I: compressing the 230 MB AlexNet state with SZ2 at 1e-2 takes ~3.2 s."""
    seconds = RASPBERRY_PI_5.compression_seconds("sz2", 230_000_000, 1e-2)
    assert seconds == pytest.approx(3.25, rel=0.05)


def test_raspberry_pi_szx_is_orders_of_magnitude_faster():
    sz2 = RASPBERRY_PI_5.compression_seconds("sz2", 100_000_000, 1e-2)
    szx = RASPBERRY_PI_5.compression_seconds("szx", 100_000_000, 1e-2)
    assert szx < sz2 / 20


def test_device_profile_nearest_bound_lookup():
    exact = RASPBERRY_PI_5.compression_seconds("sz3", 1_000_000, 1e-3)
    nearby = RASPBERRY_PI_5.compression_seconds("sz3", 1_000_000, 2e-3)
    assert exact == nearby


@pytest.mark.parametrize(
    "error_bound, table1_mbps",
    [(5e-4, 46.26), (4e-3, 70.75), (1e-5, 34.34), (1e-1, 70.75), (1e-3, 46.26)],
)
def test_device_profile_nearest_bound_is_taken_in_decades(error_bound, table1_mbps):
    """REL bounds are decades: 5e-4 is nearer 1e-3 than 1e-4, and 4e-3 nearer
    1e-2 than 1e-3, although the linear distances say the opposite."""
    seconds = RASPBERRY_PI_5.compression_seconds("sz2", 1_000_000, error_bound)
    assert seconds == 1.0 / table1_mbps


def test_device_profile_decompression_faster_than_compression():
    compress = RASPBERRY_PI_5.compression_seconds("sz2", 10_000_000, 1e-2)
    decompress = RASPBERRY_PI_5.decompression_seconds("sz2", 10_000_000, 1e-2)
    assert decompress < compress


def test_device_profile_lossless_lookup_and_errors():
    assert RASPBERRY_PI_5.lossless_seconds("blosc-lz", 1_000_000) < RASPBERRY_PI_5.lossless_seconds(
        "xz", 1_000_000
    )
    with pytest.raises(KeyError):
        RASPBERRY_PI_5.lossless_seconds("lz4", 100)
    with pytest.raises(KeyError):
        RASPBERRY_PI_5.compression_seconds("mgard", 100)


def test_get_device_profile_lookup():
    assert get_device_profile("local") is None
    assert get_device_profile("raspberry-pi-5") is RASPBERRY_PI_5
    assert isinstance(get_device_profile("rpi5"), DeviceProfile)
    with pytest.raises(KeyError):
        get_device_profile("jetson-nano")


# ----------------------------------------------------------------------
# Communication estimates
# ----------------------------------------------------------------------
def test_uncompressed_estimate_has_no_codec_time():
    estimate = LinkSpec(bandwidth_mbps=10.0).estimate_upload(230_000_000, None)
    assert estimate.compress_seconds == 0.0
    assert estimate.compressed_nbytes == 230_000_000
    assert estimate.total_seconds == pytest.approx(184.0)


def test_compressed_estimate_with_device_profile_reduces_total_time():
    """Figure 7: at 10 Mbps, FedSZ cuts AlexNet communication by ~an order of magnitude."""
    original = 230_000_000
    compressed = int(original / 12.61)  # Table V AlexNet / CIFAR-10 at 1e-2
    link = LinkSpec(bandwidth_mbps=10.0, device="raspberry-pi-5")
    baseline = link.estimate_upload(original, None)
    fedsz = link.estimate_upload(original, compressed, compressor="sz2", error_bound=1e-2)
    assert fedsz.total_seconds < baseline.total_seconds / 8
    assert (baseline.total_seconds - fedsz.total_seconds) > 100
    assert fedsz.worthwhile


def test_compressed_estimate_with_measured_times():
    estimate = LinkSpec(bandwidth_mbps=100.0).estimate_upload(
        1_000_000,
        200_000,
        compressor="sz2",
        measured_compress_seconds=0.01,
        measured_decompress_seconds=0.005,
    )
    assert estimate.compress_seconds == 0.01
    assert estimate.total_seconds == pytest.approx(0.01 + 0.005 + 0.016, rel=1e-3)


# ----------------------------------------------------------------------
# Epoch breakdowns
# ----------------------------------------------------------------------
def test_epoch_breakdown_fraction_and_row():
    breakdown = EpochTimeBreakdown(
        client_training_seconds=18.0,
        validation_seconds=2.0,
        compression_seconds=1.0,
        communication_seconds=0.0,
    )
    assert breakdown.total_seconds == pytest.approx(21.0)
    assert breakdown.compression_overhead_fraction == pytest.approx(1.0 / 21.0)
    row = breakdown.as_row()
    assert row["compression_overhead_percent"] == pytest.approx(100.0 / 21.0)


def test_empty_breakdown_fraction_is_zero():
    assert EpochTimeBreakdown().compression_overhead_fraction == 0.0


# ----------------------------------------------------------------------
# Scaling model (Figure 9)
# ----------------------------------------------------------------------
@pytest.fixture
def scaling_configs():
    update_nbytes = 9_000_000  # MobileNetV2-sized update
    compressed = update_nbytes // 5
    fedsz = ScalingConfig(
        update_nbytes=update_nbytes,
        compressed_nbytes=compressed,
        train_seconds_per_client=5.0,
        compress_seconds_per_client=0.4,
        bandwidth_mbps=10.0,
    )
    uncompressed = ScalingConfig(
        update_nbytes=update_nbytes,
        compressed_nbytes=None,
        train_seconds_per_client=5.0,
        compress_seconds_per_client=0.0,
        bandwidth_mbps=10.0,
    )
    return fedsz, uncompressed


CORES = [2, 4, 8, 16, 32, 64, 128]


def test_weak_scaling_time_grows_with_clients(scaling_configs):
    fedsz, _ = scaling_configs
    points = weak_scaling(fedsz, CORES)
    times = [p.epoch_seconds_per_client for p in points]
    assert all(later >= earlier for earlier, later in zip(times, times[1:], strict=False))
    assert points[-1].clients == 128


def test_weak_scaling_compression_is_flatter_than_uncompressed(scaling_configs):
    fedsz, uncompressed = scaling_configs
    fedsz_points = weak_scaling(fedsz, CORES)
    raw_points = weak_scaling(uncompressed, CORES)
    fedsz_growth = fedsz_points[-1].epoch_seconds_per_client / fedsz_points[0].epoch_seconds_per_client
    raw_growth = raw_points[-1].epoch_seconds_per_client / raw_points[0].epoch_seconds_per_client
    assert fedsz_growth < raw_growth
    assert all(
        f.epoch_seconds_per_client < r.epoch_seconds_per_client
        for f, r in zip(fedsz_points, raw_points, strict=True)
    )


def test_strong_scaling_speedup_increases_with_cores(scaling_configs):
    fedsz, _ = scaling_configs
    points = strong_scaling(fedsz, CORES, total_clients=127)
    speedups = speedup_curve(points)
    assert speedups[2] == pytest.approx(1.0)
    assert speedups[128] > speedups[2]
    assert speedups[128] > 3.0


def test_scaling_validation(scaling_configs):
    fedsz, _ = scaling_configs
    with pytest.raises(ValueError):
        strong_scaling(fedsz, [0])
    assert speedup_curve([]) == {}
