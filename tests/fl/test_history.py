"""Regression tests for TrainingHistory accounting and (de)serialization."""

from __future__ import annotations

import dataclasses
import math
import re

import pytest

from repro.fl import history as history_module
from repro.fl.history import ClientRoundStat, RoundRecord, TrainingHistory


def _record(
    round_index: int,
    accuracy: float = 0.5,
    compression_seconds: float = 4.0,
    measured_codec_seconds: float = 0.0,
    **overrides,
) -> RoundRecord:
    base = dict(
        round_index=round_index,
        global_accuracy=accuracy,
        global_loss=1.0,
        mean_client_loss=1.1,
        mean_client_accuracy=0.4,
        uplink_bytes=1000,
        uplink_seconds=2.0,
        compression_seconds=compression_seconds,
        decompression_seconds=0.5,
        train_seconds=3.0,
        validation_seconds=0.25,
        mean_compression_ratio=2.5,
        measured_codec_seconds=measured_codec_seconds,
    )
    base.update(overrides)
    return RoundRecord(**base)


# ----------------------------------------------------------------------
# Empty-history accuracies
# ----------------------------------------------------------------------
def test_empty_history_accuracies_are_nan_not_zero():
    """An empty history must be distinguishable from a genuinely 0-accuracy
    run: both summary accuracies are NaN before any round completes."""
    history = TrainingHistory()
    assert math.isnan(history.final_accuracy)
    assert math.isnan(history.best_accuracy)


def test_zero_accuracy_run_still_reports_zero():
    history = TrainingHistory()
    history.add(_record(0, accuracy=0.0))
    assert history.final_accuracy == 0.0
    assert history.best_accuracy == 0.0


# ----------------------------------------------------------------------
# Measured-codec fallback is per round, not per run
# ----------------------------------------------------------------------
def test_mean_epoch_breakdown_mixed_measured_rounds_fall_back_per_round():
    """Regression: with any measured round present, rounds *without* measured
    per-tensor timings used to contribute zero compression time.  They must
    fall back to their own pipeline wall instead."""
    history = TrainingHistory()
    history.add(_record(0, compression_seconds=4.0, measured_codec_seconds=1.0))
    history.add(_record(1, compression_seconds=6.0, measured_codec_seconds=0.0))

    breakdown = history.mean_epoch_breakdown(measured_codec=True)
    # Round 0 contributes its measured kernel time, round 1 its pipeline wall.
    assert breakdown.compression_seconds == pytest.approx((1.0 + 6.0) / 2)

    aggregate = history.mean_epoch_breakdown(measured_codec=False)
    assert aggregate.compression_seconds == pytest.approx((4.0 + 6.0) / 2)


def test_mean_epoch_breakdown_all_measured_uses_measured_only():
    history = TrainingHistory()
    history.add(_record(0, compression_seconds=4.0, measured_codec_seconds=1.0))
    history.add(_record(1, compression_seconds=6.0, measured_codec_seconds=2.0))
    breakdown = history.mean_epoch_breakdown(measured_codec=True)
    assert breakdown.compression_seconds == pytest.approx((1.0 + 2.0) / 2)


def test_mean_epoch_breakdown_no_measured_rounds_keeps_aggregate():
    history = TrainingHistory()
    history.add(_record(0, compression_seconds=4.0))
    breakdown = history.mean_epoch_breakdown(measured_codec=True)
    assert breakdown.compression_seconds == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Full-fidelity serialization (checkpoint path)
# ----------------------------------------------------------------------
def test_history_serialize_deserialize_roundtrip_is_lossless():
    history = TrainingHistory()
    history.add(
        _record(
            0,
            client_stats=[
                ClientRoundStat(
                    client_id=2,
                    num_samples=40,
                    train_loss=1.25,
                    train_accuracy=0.375,
                    train_seconds=0.123456789,
                    payload_nbytes=512,
                    compression_ratio=float("inf"),
                    delivered=False,
                    aggregated=False,
                    staleness=3,
                    weight=0.0625,
                )
            ],
        )
    )
    history.add(_record(1, accuracy=0.625, dropped_clients=1))

    restored = TrainingHistory.deserialize(history.serialize())
    assert restored.records == history.records


def test_deterministic_rows_excludes_wall_clock_fields():
    history = TrainingHistory()
    history.add(_record(0, client_stats=[ClientRoundStat(0, 10, 1.0, 0.5, 0.9)]))
    (row,) = history.deterministic_rows()
    assert "train_seconds" not in row
    assert "simulated_round_seconds" not in row
    assert row["uplink_bytes"] == 1000
    assert row["clients"][0]["client_id"] == 0
    assert "train_seconds" not in row["clients"][0]
    assert "turnaround_seconds" not in row["clients"][0]


@pytest.mark.parametrize(
    "cls",
    [ClientRoundStat, RoundRecord, history_module.EpochTimeBreakdown],
    ids=lambda cls: cls.__name__,
)
def test_every_record_field_is_classified(cls):
    """A new record field must be declared deterministic (compared bit-for-bit
    by the resume and executor-parity suites) or observational (host-measured):
    a field in neither set is silently left out of both contracts."""
    prefix = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).upper()
    deterministic = getattr(history_module, f"DETERMINISTIC_{prefix}_FIELDS")
    observational = getattr(history_module, f"OBSERVATIONAL_{prefix}_FIELDS")
    assert {f.name for f in dataclasses.fields(cls)} == deterministic | observational
    assert not deterministic & observational
