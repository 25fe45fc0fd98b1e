"""Tests for byte-size helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.sizes import (
    format_bytes,
    megabits_per_second_to_bytes_per_second,
    nbytes_of,
    sizeof_state_dict,
)


def test_nbytes_of_float32_array():
    assert nbytes_of(np.zeros(10, dtype=np.float32)) == 40


def test_sizeof_state_dict_sums_all_tensors():
    state = {
        "weight": np.zeros((4, 4), dtype=np.float32),
        "bias": np.zeros(4, dtype=np.float32),
        "running_mean": np.zeros(4, dtype=np.float64),
    }
    assert sizeof_state_dict(state) == 64 + 16 + 32


def test_format_bytes_uses_binary_prefixes():
    assert format_bytes(0) == "0.00 B"
    assert format_bytes(1024) == "1.00 KiB"
    assert format_bytes(230 * 1024 * 1024) == "230.00 MiB"


def test_format_bytes_rejects_negative():
    with pytest.raises(ValueError):
        format_bytes(-1)


def test_bandwidth_conversion_10mbps():
    assert megabits_per_second_to_bytes_per_second(10) == pytest.approx(1.25e6)


def test_bandwidth_conversion_rejects_nonpositive():
    with pytest.raises(ValueError):
        megabits_per_second_to_bytes_per_second(0)
