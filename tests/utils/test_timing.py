"""Tests for timing helpers."""

from __future__ import annotations

import time

import pytest

from repro.utils.timing import Timer, timed


def test_timer_accumulates_measurements():
    timer = Timer()
    with timer.measure("work"):
        time.sleep(0.001)
    with timer.measure("work"):
        time.sleep(0.001)
    assert timer.total("work") >= 0.002
    assert timer.counts["work"] == 2
    assert timer.mean("work") >= 0.001


def test_timer_unknown_label_is_zero():
    timer = Timer()
    assert timer.total("missing") == 0.0
    assert timer.mean("missing") == 0.0


def test_timer_reset_clears_state():
    timer = Timer()
    timer.add("x", 1.0)
    timer.reset()
    assert timer.as_dict() == {}


def test_timed_returns_result_and_duration():
    result, seconds = timed(sum, [1, 2, 3])
    assert result == 6
    assert seconds >= 0.0


def test_timer_measure_records_when_the_body_raises():
    timer = Timer()
    with pytest.raises(KeyError):
        with timer.measure("fails"):
            raise KeyError("x")
    assert timer.counts["fails"] == 1
    assert timer.total("fails") >= 0.0


def test_timer_as_dict_is_a_snapshot():
    timer = Timer()
    timer.add("x", 1.0)
    snapshot = timer.as_dict()
    snapshot["x"] = 99.0
    timer.add("x", 0.5)
    assert timer.as_dict() == {"x": 1.5}
    assert timer.mean("x") == pytest.approx(0.75)


def test_timed_passes_positional_and_keyword_arguments():
    result, seconds = timed(sorted, [3, 1, 2], reverse=True)
    assert result == [3, 2, 1]
    assert seconds >= 0.0
