"""ZFP through the shared entropy stage: same reconstructions, typed failures.

``ZFPPredictor`` hands its integer coefficients and block exponents to
:class:`~repro.compression.stages.EntropyStage` instead of bit-packing and
deflating them itself.  The quantised coefficients did not change, so every
reconstruction must still equal the frozen ``ReferenceZFPCompressor`` bit for
bit; the payload layout did change, and its decoder must reject anything it
cannot account for — including a payload in the previous layout — with
:class:`CorruptPayloadError`, in bounded memory.
"""

from __future__ import annotations

import tracemalloc
import zlib

import numpy as np
import pytest

from repro.compression import ErrorBoundMode, ZFPCompressor
from repro.compression.base import pack_sections, unpack_sections
from repro.compression.errors import CorruptPayloadError
from repro.compression.reference_codecs import ReferenceZFPCompressor
from repro.compression.stages import EntropyStage, pack_stage_meta, unpack_stage_meta
from repro.core import FedSZCompressor
from repro.nn.models import create_model


def _weights(size, dtype=np.float32, seed=7):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.02, size).astype(dtype)
    outliers = rng.choice(size, max(1, size // 150), replace=False)
    values[outliers] = rng.uniform(-0.9, 0.9, outliers.size).astype(dtype)
    return values


def _with_zero_blocks(size=4099):
    """Whole blocks of zeros (their exponent stays 0) between live ones."""
    values = _weights(size)
    values[400:1200] = 0.0
    values[-7:] = 0.0
    return values


CASES = {
    "one-value": (_weights(1), 1e-2, ErrorBoundMode.REL),
    "half-a-block": (_weights(2), 1e-2, ErrorBoundMode.REL),
    "one-block": (_weights(4), 1e-2, ErrorBoundMode.REL),
    "size-1-mod-4": (_weights(4097), 1e-2, ErrorBoundMode.REL),
    "size-2-mod-4": (_weights(4098), 1e-3, ErrorBoundMode.REL),
    "size-3-mod-4": (_weights(4099), 1e-1, ErrorBoundMode.REL),
    "all-zero": (np.zeros(64, dtype=np.float32), 1e-2, ErrorBoundMode.REL),
    "zero-blocks": (_with_zero_blocks(), 1e-2, ErrorBoundMode.REL),
    "float64": (_weights(5001, np.float64), 1e-3, ErrorBoundMode.REL),
    "float64-wide-exponents": (
        _weights(5001, np.float64) * np.logspace(-200, 200, 5001),
        1e-2,
        ErrorBoundMode.REL,
    ),
    "abs-mode": (_weights(5001), 5e-3, ErrorBoundMode.ABS),
    "abs-mode-tight": (_weights(5001), 1e-7, ErrorBoundMode.ABS),
    "precision-30": (_weights(5001, np.float64), 1e-12, ErrorBoundMode.REL),
    "precision-2": (_weights(5001), 0.9, ErrorBoundMode.REL),
    "3-d": (_weights(6000).reshape(20, 10, 30), 1e-2, ErrorBoundMode.REL),
}


@pytest.mark.parametrize("level", [6, 1], ids=["level6", "level1"])
@pytest.mark.parametrize("case", CASES)
def test_reconstruction_equals_the_reference_bit_for_bit(case, level):
    data, bound, mode = CASES[case]
    reference = ReferenceZFPCompressor(compression_level=level)
    expected = reference.decompress(reference.compress(data, bound, mode))
    codec = ZFPCompressor(compression_level=level)
    actual = codec.decompress(codec.compress(data, bound, mode))
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)


def test_decoder_level_does_not_matter():
    """``compression_level`` is the entropy stage's level: an encoder knob."""
    data = _weights(5001)
    reference = ReferenceZFPCompressor()
    expected = reference.decompress(reference.compress(data, 1e-2))
    payload = ZFPCompressor(compression_level=1).compress(data, 1e-2)
    np.testing.assert_array_equal(ZFPCompressor(compression_level=9).decompress(payload), expected)


@pytest.mark.parametrize("bound,floor", [(1e-2, 3.2), (1e-3, 2.7)], ids=["rel-1e2", "rel-1e3"])
def test_state_dict_ratio(bound, floor):
    """Measured 3.26 / 2.78 (3.08 / 2.38 with the bit-packer + DEFLATE)."""
    state = create_model("mobilenetv2", "paper", seed=11).state_dict()
    codec = FedSZCompressor(lossy_compressor="zfp", error_bound=bound)
    codec.compress(state)
    assert codec.last_report.ratio >= floor


# ----------------------------------------------------------------------
# Fail closed, in bounded memory
# ----------------------------------------------------------------------
def _honest(size=4000):
    data = _weights(size)
    return data, unpack_sections(ZFPCompressor().compress(data, 1e-2))


def _with_body(section: bytes, body: bytes) -> bytes:
    """An entropy section keeping its header (count, width) over another body."""
    return section[:10] + body


def _with_precision(meta: bytes, precision) -> bytes:
    ctx = unpack_stage_meta(meta, "zfp")
    if precision is None:
        del ctx.params["precision"]
    else:
        ctx.params["precision"] = precision
    return pack_stage_meta(ctx)


def test_hostile_payloads_raise_the_typed_error_in_bounded_memory():
    data, honest = _honest()
    blocks = data.size // 4
    np.testing.assert_array_equal(  # the sections, repacked untouched, decode
        ZFPCompressor().decompress(pack_sections(honest)),
        ZFPCompressor().decompress(ZFPCompressor().compress(data, 1e-2)),
    )
    bomb = zlib.compress(bytes(50_000_000))
    exponents = EntropyStage.decode(honest["emax"])
    codes = EntropyStage.decode(honest["codes"])
    stage = EntropyStage()
    hostile = {
        "bomb in codes": {**honest, "codes": _with_body(honest["codes"], bomb)},
        "bomb in emax": {**honest, "emax": _with_body(honest["emax"], bomb)},
        "garbage codes": {**honest, "codes": _with_body(honest["codes"], bytes(range(256)) * 4)},
        "garbage emax": {**honest, "emax": bytes(range(256))},
        "truncated codes": {**honest, "codes": honest["codes"][:-7]},
        "truncated emax": {**honest, "emax": honest["emax"][:-1]},
        "empty codes": {**honest, "codes": b""},
        "one exponent too many": {**honest, "emax": stage.encode(np.append(exponents, 0))},
        "one exponent too few": {**honest, "emax": stage.encode(exponents[:-1])},
        "one block of codes too many": {**honest, "codes": stage.encode(np.append(codes, [0] * 4))},
        "one code too few": {**honest, "codes": stage.encode(codes[:-1])},
        "no codes": {**honest, "codes": stage.encode(codes[:0])},
        "previous layout": {
            "meta": honest["meta"],
            "emax": zlib.compress(exponents.astype("<i2").tobytes(), 6),
            "coef": zlib.compress(bytes(blocks * 4 * 11 // 8 + 1), 6),
        },
        "previous layout, bomb": {
            "meta": honest["meta"],
            "emax": zlib.compress(exponents.astype("<i2").tobytes(), 6),
            "coef": bomb,
        },
    }
    for precision in (None, 0, 1, 31, 64, 2**40, -3, "8", 8.5, True, [8]):
        hostile[f"precision {precision!r}"] = {
            **honest,
            "meta": _with_precision(honest["meta"], precision),
        }
    payloads = {what: pack_sections(sections) for what, sections in hostile.items()}
    codec = ZFPCompressor()
    tracemalloc.start()
    try:
        for what, payload in payloads.items():
            try:
                codec.decompress(payload)
            except CorruptPayloadError:
                continue  # zlib.error, KeyError, ValueError would escape as themselves
            pytest.fail(f"{what}: decoded without an error")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The bombs inflate to 50 MB; nothing may be allocated past the declared
    # size of a stream (1000 exponents, 4000 two-byte codes) and its decode.
    assert peak < 2_000_000
