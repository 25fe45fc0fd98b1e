"""Tests for the sized inflater and the CRC-32 of :mod:`repro.compression.inflate`."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.compression import inflate
from repro.compression.errors import CorruptPayloadError


@pytest.mark.parametrize("size", [0, 1, 4095, 4096, 2**20 + 3])
@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_crc32_equals_zlib(size, kind, inflate_backend):
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    assert inflate.crc32(kind(data)) == zlib.crc32(data)


def test_crc32_of_a_memoryview_slice_reads_only_the_slice(inflate_backend):
    data = bytes(range(256)) * 64
    assert inflate.crc32(memoryview(data)[7:-5]) == zlib.crc32(data[7:-5])


@pytest.mark.parametrize("size", [0, 1, 4096, 300_000])
def test_inflate_returns_exactly_the_stream(size, inflate_backend):
    data = np.random.default_rng(size).integers(0, 4, size, dtype=np.uint8).tobytes()
    body = zlib.compress(data)
    for given in (body, memoryview(b"xx" + body)[2:]):
        restored = inflate.inflate(given, size, "test stream")
        assert restored.dtype == np.uint8 and restored.tobytes() == data


def test_an_empty_body_is_truncated(inflate_backend):
    with pytest.raises(CorruptPayloadError, match="test stream declared 0 bytes but its body is truncated"):
        inflate.inflate(b"", 0, "test stream")


def test_the_backend_is_named(inflate_backend):
    assert inflate.backend() == inflate_backend
