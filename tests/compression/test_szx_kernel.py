"""The SZx slab kernels: code widths, packer layout, allocation peaks, hostile input.

``SZxPredictor`` encodes a tensor in slabs of ``szx._SLAB_ELEMENTS`` values and
packs / unpacks its ``width + 1``-bit fields eight to a lane.  The payload
bytes and reconstructions of its boundary grid and of the special tensors
below, at the real slab and at sixteen blocks a slab, are pinned in the golden
corpus (``tests/golden/``).  Here: the widths those special tensors were built
to reach, the packer against ``np.packbits`` of the explicit bit matrix, the
allocation peaks, and the sections and inputs that used to escape as untyped
errors or as a reconstruction full of ``inf``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from golden.cases import REAL_SLAB, SZX_SPECIALS, szx_special
from repro.compression import ErrorBoundMode, SZ2Compressor, SZxCompressor, szx
from repro.compression.base import pack_array, pack_sections, unpack_array, unpack_sections
from repro.compression.errors import CorruptPayloadError, InvalidErrorBoundError
from _reference.codecs import ReferenceSZxCompressor
from repro.compression.stages import pack_stage_meta, unpack_stage_meta
from repro.core import FedSZCompressor
from repro.core.serializer import build_fedsz_payload, parse_fedsz_payload


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: ``-0.0`` is not ``0.0`` here."""
    return (left.dtype, left.shape, left.tobytes()) == (right.dtype, right.shape, right.tobytes())


def _reference_roundtrip(data: np.ndarray, block: int, bound: float, mode) -> np.ndarray:
    reference = ReferenceSZxCompressor(block_size=block)
    return reference.decompress(reference.compress(data, bound, mode))


#: What each special tensor was built to reach, on its per-block widths.
SPECIAL_WIDTHS = {
    "all-constant": lambda widths: widths.max() == 0,
    "mixed-in-one-slab": lambda widths: 0 < np.count_nonzero(widths) < widths.size,
    "widths-over-16": lambda widths: 16 < widths.max() <= 31,
    "widths-over-32": lambda widths: widths.max() > 32,
    "wider-from-the-third-slab": lambda widths: (
        widths[: 2 * REAL_SLAB // 128].max() <= 7 < widths.max()
    ),
}


@pytest.mark.parametrize("name", SPECIAL_WIDTHS)
def test_special_tensors_reach_their_code_widths(name):
    _, mode, bound = SZX_SPECIALS[name]
    payload = SZxCompressor().compress(szx_special(name), bound, ErrorBoundMode[mode])
    assert SPECIAL_WIDTHS[name](unpack_array(unpack_sections(payload)["widths"]))


# ----------------------------------------------------------------------
# The field packer
# ----------------------------------------------------------------------
def _bit_matrix_bytes(codes: np.ndarray, bits: int) -> bytes:
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    matrix = (codes.astype(np.uint64)[:, None] >> shifts) & np.uint64(1)
    return np.packbits(matrix.astype(np.uint8)).tobytes()


@pytest.mark.parametrize("width", [*range(1, 33), 48, 63])
@pytest.mark.parametrize("count", [1, 7, 8, 13, 1003], ids=lambda count: f"n{count}")
def test_field_packer_equals_packbits_of_the_bit_matrix(width, count):
    """Sign above the magnitude, every width a code dtype carries, and counts
    that end inside a lane; the unpacker gives the codes back in that dtype."""
    bits = width + 1
    rng = np.random.default_rng(bits * count)
    codes = rng.integers(0, 1 << bits, count, dtype=np.uint64, endpoint=False)
    codes[rng.integers(count)] = (1 << bits) - 1
    codes = codes.astype(np.min_scalar_type((1 << bits) - 1))
    packed = szx._pack_fields(codes, bits)
    assert packed == _bit_matrix_bytes(codes, bits)
    unpacked = szx._unpack_fields(packed, count, bits)
    assert unpacked.dtype == codes.dtype
    np.testing.assert_array_equal(unpacked, codes)


# ----------------------------------------------------------------------
# Allocation peaks
# ----------------------------------------------------------------------
def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bound", [1e-2, 1e-4], ids=["uint8-codes", "uint16-codes"])
def test_allocation_peaks_are_bounded(bound, rng):
    """The whole-tensor arrays are the codes (compress) and the output
    (decompress); everything float64 is a slab.  Measured 0.85x / 1.3x a
    ``layer4`` float32 input at REL 1e-2 and 1.4x / 1.6x at 1e-4 (parent: 10.4x /
    7.4x and 13.5x / 10.5x); the ceiling is the one ``test_sz2_kernel.py`` sets
    for SZ2."""
    data = rng.normal(0.0, 0.02, 2_359_296).astype(np.float32)
    payloads = []
    peak = _traced_peak(lambda: payloads.append(SZxCompressor().compress(data, bound)))
    assert peak <= 2.5 * data.nbytes, f"compress peak {peak / data.nbytes:.2f}x the input"
    peak = _traced_peak(lambda: SZxCompressor().decompress(payloads[0]))
    assert peak <= 2.5 * data.nbytes, f"decompress peak {peak / data.nbytes:.2f}x the input"


# ----------------------------------------------------------------------
# Forged sections and metadata fail closed
# ----------------------------------------------------------------------
def _victim(rng) -> np.ndarray:
    data = rng.normal(0.0, 0.02, 5000).astype(np.float32)
    data[1024:1536] = 0.01  # four constant blocks
    return data


def _with_params(sections: dict, params: dict) -> dict:
    ctx = unpack_stage_meta(sections["meta"], "szx")
    ctx.params = params
    return sections | {"meta": pack_stage_meta(ctx)}


def _forgeries(data: np.ndarray) -> dict:
    """Name -> sections that differ from ``data``'s valid payload in one place."""
    good = unpack_sections(SZxCompressor().compress(data, 1e-2))
    means, widths = unpack_array(good["means"]), unpack_array(good["widths"])
    first_value_block = np.arange(widths.size) == np.flatnonzero(widths)[0]
    changes = {
        "means-short": {"means": pack_array(means[:-1])},
        "means-long": {"means": pack_array(np.append(means, means[-1]))},
        "means-2d": {"means": pack_array(means.reshape(-1, 1))},
        "means-int64": {"means": pack_array(means.astype(np.int64))},
        "means-float16": {"means": pack_array(means.astype(np.float16))},
        "widths-short": {"widths": pack_array(widths[:-1])},
        "widths-long": {"widths": pack_array(np.append(widths, widths[-1]))},
        "widths-float32": {"widths": pack_array(widths.astype(np.float32))},
        "width-0-on-a-value-block": {"widths": pack_array(np.where(first_value_block, 0, widths))},
        "width-64": {"widths": pack_array(np.where(first_value_block, 64, widths))},
        "width-255": {"widths": pack_array(np.where(widths > 0, 255, 0).astype(np.uint8))},
        "values-truncated": {"values": good["values"][:-1]},
        "values-100-bytes-appended": {"values": good["values"] + bytes(100)},
        "values-empty": {"values": b""},
        "flags-short": {"flags": good["flags"][:-1]},
    }
    forged = {name: good | change for name, change in changes.items()}
    block_sizes = {
        "0": 0, "negative": -4, "string": "x", "none": None, "list": [128], "true": True,
        "float": 128.0, "above-the-size": data.size + 1, "1e12": 10**12,
    }  # fmt: skip
    for name, block_size in block_sizes.items():
        forged[f"block-size-{name}"] = _with_params(good, {"block_size": block_size})
    forged["block-size-missing"] = _with_params(good, {})
    return forged


FORGERIES = sorted(_forgeries(_victim(np.random.default_rng(42))))


def test_the_payload_the_forgeries_start_from_decodes(rng):
    data = _victim(rng)
    restored = SZxCompressor().decompress(SZxCompressor().compress(data, 1e-2))
    np.testing.assert_allclose(restored, data, atol=2e-3)
    codec, payload = _through_fedsz("szx", data, lambda genuine: genuine)
    assert _same_bits(codec.decompress(payload)["layer.weight"], restored)


@pytest.mark.parametrize("name", FORGERIES)
def test_forged_sections_are_corrupt_payloads(name, rng):
    """Each of these used to reach the caller as IndexError, ValueError,
    TypeError, KeyError or ZeroDivisionError, or was decoded; and they do not
    get past the state-dict codec either."""
    data = _victim(rng)
    forged = pack_sections(_forgeries(data)[name])
    with pytest.raises(CorruptPayloadError):
        SZxCompressor().decompress(forged)
    codec, payload = _through_fedsz("szx", data, lambda genuine: forged)
    with pytest.raises(CorruptPayloadError):
        codec.decompress(payload)


def _through_fedsz(codec_name: str, data: np.ndarray, forge) -> tuple:
    """A FedSZ codec and its payload for ``data`` with the tensor's codec payload forged."""
    codec = FedSZCompressor(error_bound=1e-2, lossy_compressor=codec_name)
    header, lossy, lossless = parse_fedsz_payload(codec.compress({"layer.weight": data}))
    assert list(lossy) == ["layer.weight"]
    lossy["layer.weight"] = forge(lossy["layer.weight"])
    return codec, build_fedsz_payload(header, lossy, lossless)


def test_a_forged_block_size_is_rejected_before_anything_is_allocated(rng):
    """One block of 10^12 values used to be an 8 TB ``np.repeat``."""
    payload = pack_sections(_forgeries(_victim(rng))["block-size-1e12"])

    def refused():
        with pytest.raises(CorruptPayloadError):
            SZxCompressor().decompress(payload)

    assert _traced_peak(refused) < 1_000_000


def _odd_coef(payload: bytes) -> bytes:
    sections = unpack_sections(payload)
    coef = unpack_array(sections["coef"])
    assert coef.size >= 2
    return pack_sections(sections | {"coef": pack_array(coef.reshape(-1)[:-1])})


def test_sz2_coefficients_of_odd_length_are_a_corrupt_payload(rng):
    """Was a bare ``ValueError`` out of ``reshape(-1, 2)``."""
    data = _victim(rng)
    with pytest.raises(CorruptPayloadError):
        SZ2Compressor().decompress(_odd_coef(SZ2Compressor().compress(data, 1e-2)))
    codec, payload = _through_fedsz("sz2", data, _odd_coef)
    with pytest.raises(CorruptPayloadError):
        codec.decompress(payload)


# ----------------------------------------------------------------------
# float64 beyond float32's range
# ----------------------------------------------------------------------
@pytest.mark.parametrize("codec", [SZxCompressor, SZ2Compressor], ids=["szx", "sz2"])
@pytest.mark.parametrize("scale", [1e39, 1e200, 1e-200], ids=["1e39", "1e200", "1e-200"])
def test_float64_far_from_float32_range_round_trips_within_the_bound(codec, scale):
    """Block means (SZx) and regression lines (SZ2) are stored as float32: at
    1e39 they overflowed and the reconstruction came back ``inf`` / ``nan``
    without an error."""
    data = np.random.default_rng(0).standard_normal(5000) * scale
    bound = 1e-2 * float(data.max() - data.min())
    restored = codec().decompress(codec().compress(data, 1e-2))
    assert restored.dtype == np.float64 and np.isfinite(restored).all()
    assert np.abs(restored - data).max() <= bound
    state = FedSZCompressor(error_bound=1e-2, lossy_compressor=codec.name)
    through = state.decompress(state.compress({"layer.weight": data}))["layer.weight"]
    assert _same_bits(through, restored)


def test_only_means_beyond_float32_widen_the_means_section():
    """One value past float32's range in a block whose mean fits keeps the
    section float32 (the parent's bytes); a mean that does not fit makes the
    whole section float64, which every decoder of a ``pack_array`` reads."""
    data = np.random.default_rng(7).standard_normal(1280)
    data[5] = 1e39  # mean 7.8e36
    fits = unpack_array(unpack_sections(SZxCompressor().compress(data, 1e-3))["means"])
    assert fits.dtype == np.float32 and np.isfinite(fits).all()
    data[128:256] = 1e39
    wide = unpack_array(unpack_sections(SZxCompressor().compress(data, 1e-3))["means"])
    assert wide.dtype == np.float64 and wide[1] == pytest.approx(1e39)
    np.testing.assert_array_equal(np.delete(wide, 1), np.delete(wide, 1).astype(np.float32))


def test_a_bound_no_code_can_hold_is_refused_not_garbled(rng):
    """|x - mean| / ε from 2^63 up has no 64-bit field; the parent wrapped it
    and returned a reconstruction off by the whole value."""
    data = rng.standard_normal(1000)
    payload = SZxCompressor().compress(data, 5e-19, ErrorBoundMode.ABS)
    assert unpack_array(unpack_sections(payload)["widths"]).max() == 63  # a 64-bit field
    restored = SZxCompressor().decompress(payload)
    assert _same_bits(restored, _reference_roundtrip(data, 128, 5e-19, ErrorBoundMode.ABS))
    assert np.abs(restored - data).max() < 1e-12
    for bound in (1e-19, 1e-25, 1e-320):
        with pytest.raises(InvalidErrorBoundError):
            SZxCompressor().compress(data, bound, ErrorBoundMode.ABS)
