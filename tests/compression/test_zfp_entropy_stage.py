"""ZFP through the shared entropy stage: same reconstructions, typed failures.

``ZFPPredictor`` hands its integer coefficients and block exponents to
:class:`~repro.compression.stages.EntropyStage` instead of bit-packing and
deflating them itself.  The quantised coefficients did not change, so every
reconstruction must still equal the frozen ``ReferenceZFPCompressor`` bit for
bit — the golden corpus (``tests/golden/``) checks that, and pins the
payloads, across the encode's slab boundaries, both retained-precision clamps,
zero blocks, wide exponents and 3-D shapes.  The payload layout did change,
and its decoder must reject anything it cannot account for — including a
payload in the previous layout — with :class:`CorruptPayloadError`, in
bounded memory; the slab walk's allocation peak has a ceiling.
"""

from __future__ import annotations

import tracemalloc
import zlib

import numpy as np
import pytest

from golden.cases import noise, weights
from repro.compression import ZFPCompressor
from repro.compression.base import pack_sections, unpack_sections
from repro.compression.errors import CorruptPayloadError
from _reference.codecs import ReferenceZFPCompressor
from repro.compression.stages import EntropyStage, pack_stage_meta, unpack_stage_meta
from repro.core import FedSZCompressor
from repro.nn.models import create_model


def test_decoder_level_does_not_matter():
    """``compression_level`` is the entropy stage's level: an encoder knob."""
    data = weights(5001, "float32")
    reference = ReferenceZFPCompressor()
    expected = reference.decompress(reference.compress(data, 1e-2))
    payload = ZFPCompressor(compression_level=1).compress(data, 1e-2)
    np.testing.assert_array_equal(ZFPCompressor(compression_level=9).decompress(payload), expected)


# ----------------------------------------------------------------------
# The encode slab walk's allocation peak, the state-dict ratio
# ----------------------------------------------------------------------
def test_encode_allocation_peak_is_bounded():
    """The whole-tensor arrays are the int32 codes and the block exponents;
    everything float64 is a slab.  Measured on MobileNetV2-paper's largest
    tensor (409,600 float32 values) at REL 1e-2: 4.25x, against 12.1x with
    whole-tensor float64 blocks, normalised copy and coefficients.  Plain
    noise: ``weights``' run of zeros would code smaller and read 3.5x."""
    data = noise(409_600, 7).astype(np.float32)
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
    data = weights(size, "float32")
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
