"""ZFP through the shared entropy stage: same reconstructions, typed failures.

``ZFPPredictor`` hands its integer coefficients and block exponents to
:class:`~repro.compression.stages.EntropyStage` instead of bit-packing and
deflating them itself.  The quantised coefficients did not change, so every
reconstruction must still equal the frozen ``ReferenceZFPCompressor`` bit for
bit; the payload layout did change, and its decoder must reject anything it
cannot account for — including a payload in the previous layout — with
:class:`CorruptPayloadError`, in bounded memory.  The encode later became a
slab walk: its payloads are pinned against digests recorded at the commit
before it, across slab boundaries, and its allocation peak has a ceiling.
"""

from __future__ import annotations

import hashlib
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.compression import ErrorBoundMode, ZFPCompressor, zfp
from repro.compression.base import pack_sections, unpack_sections
from repro.compression.errors import CorruptPayloadError
from _reference.codecs import ReferenceZFPCompressor
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


# ----------------------------------------------------------------------
# The encode slab walk: parent bytes at every slab boundary, allocation peak
# ----------------------------------------------------------------------
#: The slab the sizes below were cut for (they need not follow a retuned one).
RECORDED_SLAB = 1 << 16
SMALL_SLAB_BLOCKS = 16


@pytest.fixture(params=["real-slab", "16-block-slab"])
def slab(request, monkeypatch):
    """Run the test at the real slab size and at sixteen blocks a slab."""
    if request.param == "16-block-slab":
        monkeypatch.setattr(zfp, "_SLAB_ELEMENTS", SMALL_SLAB_BLOCKS * 4)


def _pinned_sizes():
    """Under a block, around one, then a slab exactly, a slab and a value, and
    three slabs and a ragged tail — for the sixteen-block slab and the recorded one."""
    sizes = {1, 3, 4, 5}
    for slab_values in (SMALL_SLAB_BLOCKS * 4, RECORDED_SLAB):
        sizes |= {slab_values, slab_values + 1, 3 * slab_values + 4 + 3}
    return sorted(sizes)


def _pinned_payloads(dtype, mode, bound):
    """The payloads of every pinned size: weights with a stretch of zero blocks."""
    payloads = []
    for size in _pinned_sizes():
        data = _weights(size, dtype, seed=size)
        data[size // 3 : size // 2] = 0.0
        payloads.append(ZFPCompressor().compress(data, bound, ErrorBoundMode[mode]))
    return payloads


#: SHA-256 of the joined ``_pinned_payloads`` at the parent commit (whole-tensor
#: encode; zlib 1.2.13, on which the bytes depend).
PARENT_PAYLOAD_SHA256 = {
    ("float16", "REL", 1e-2): "1ff4b5e2d713cd969d48cec551418f4242eecbd74f404b2f446b5241d076f0bc",
    ("float16", "REL", 1e-3): "e093a8e1c69209795a99e84d913181d518a13e8889fb09b04f9d3bb0856a112f",
    ("float16", "ABS", 1e-3): "aaabef159d0e7fdabab7dd3821db6aac79064ca5fc5d27ca3f42052174b65091",
    ("float32", "REL", 1e-2): "14ff5c327e137af9106b6d389973502d5278c9f8ed7079d8557cc2b0323c8e42",
    ("float32", "REL", 1e-3): "b3298a5884323dd4870635645b8b9f52c42f7a0360f6d96fe906431edf3fcc22",
    ("float32", "ABS", 1e-3): "6bb8ffa8ef7d0e45d9ca6e38ba4f37eff2b68a567c728f6a056487875d01c66f",
    ("float64", "REL", 1e-2): "c9c23f36b1a5d7af3feca6f943aa4c28415f45b57099abb5f587ffdca31a21f6",
    ("float64", "REL", 1e-3): "fbe469573ad1ad1ce24ebd9067aaac8cd3acad054f2a6a4c4dbddb975414994c",
    ("float64", "ABS", 1e-3): "9872e412a5988ca4a2b1cf341c2704c7776c0e6603170606efd15d21837e11e6",
}


@pytest.mark.parametrize(
    "case", PARENT_PAYLOAD_SHA256, ids=lambda case: "{}-{}-{:g}".format(*case)
)
def test_every_slab_boundary_gives_the_parent_bytes(case, slab):
    payloads = _pinned_payloads(*case)
    assert hashlib.sha256(b"".join(payloads)).hexdigest() == PARENT_PAYLOAD_SHA256[case]


def test_encode_allocation_peak_is_bounded():
    """The whole-tensor arrays are the int32 codes and the block exponents;
    everything float64 is a slab.  Measured on MobileNetV2-paper's largest
    tensor (409,600 float32 values) at REL 1e-2: 4.25x, against 12.1x with
    whole-tensor float64 blocks, normalised copy and coefficients."""
    data = _weights(409_600)
    tracemalloc.start()
    try:
        ZFPCompressor().compress(data, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.0 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the input"


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
