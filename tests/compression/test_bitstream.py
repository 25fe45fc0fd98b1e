"""Tests for the one-bit-per-block flag sections."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bitstream import pack_bit_flags, unpack_bit_flags
from repro.compression.errors import CorruptPayloadError


def test_bit_flags_roundtrip():
    flags = [True, False, True, True, False, False, False, True, True, False, True]
    payload = pack_bit_flags(flags)
    decoded = unpack_bit_flags(payload, len(flags))
    assert decoded.tolist() == flags


def test_bit_flags_truncated_payload_raises():
    payload = pack_bit_flags([True] * 4)
    with pytest.raises(CorruptPayloadError):
        unpack_bit_flags(payload, 100)


#: Flag counts on both sides of the byte and word boundaries.
BOUNDARY_COUNTS = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000]


@pytest.mark.parametrize("count", BOUNDARY_COUNTS)
def test_flag_section_size_padding_and_roundtrip(count):
    flags = np.random.default_rng(count).random(count) < 0.5
    payload = pack_bit_flags(flags)
    assert len(payload) == -(-count // 8)  # one byte per eight flags, rounded up
    if count % 8:
        assert payload[-1] & ((1 << (8 - count % 8)) - 1) == 0  # zero-padded tail
    np.testing.assert_array_equal(unpack_bit_flags(payload, count), flags)


@pytest.mark.parametrize("count", [1, 8, 9, 64, 65])
def test_flag_section_one_byte_short_raises(count):
    payload = pack_bit_flags([True] * count)
    with pytest.raises(CorruptPayloadError, match=f"expected at least {count}"):
        unpack_bit_flags(payload[:-1], count)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.booleans(), min_size=0, max_size=300))
def test_bit_flags_roundtrip_property(flags):
    decoded = unpack_bit_flags(pack_bit_flags(flags), len(flags))
    assert decoded.tolist() == flags
