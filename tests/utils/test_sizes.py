"""Tests for byte-size helpers."""

from __future__ import annotations

import pytest

from repro.utils.sizes import (
    format_bytes,
    megabits_per_second_to_bytes_per_second,
)


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


def test_format_bytes_stays_in_tebibytes_past_the_last_prefix():
    assert format_bytes(1024**5) == "1024.00 TiB"


def test_format_bytes_precision():
    assert format_bytes(1536, precision=1) == "1.5 KiB"
    assert format_bytes(1023, precision=0) == "1023 B"


def test_bandwidth_conversion_rejects_negative():
    with pytest.raises(ValueError):
        megabits_per_second_to_bytes_per_second(-5)
