"""Tensors coded as a group must come out as if each had been coded alone.

``compress_group`` / ``decompress_group`` hand a codec consecutive tensors in
one call; SZ2 walks a run of small ones as one slab (``sz2._runs``) with a
bin width per row, and a lone tensor above the run limit in slabs.  Here a
list built to land on every edge of that walk is coded as groups and tensor
by tensor, for every codec (the others through
``LossyCompressor``'s loop) x dtype x mode x bound, and the payloads and the
reconstructions must be equal to the bit.  For SZ2 the payloads are also
compared with digests recorded at the parent commit, whose ``compress`` knew
one tensor at a time (zlib 1.2.13, on which the bytes depend).  The run limit
is shrunk to eight blocks and a larger tensor's slab to two, so that the list
crosses many run and slab boundaries cheaply.  At the real limits, the tiny
models' updates and a list built to cross the old and the new run limit are
pinned to digests recorded before the run limit grew from one slab to 2^18
values.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.compression import (
    ErrorBoundMode,
    SZ2Compressor,
    SZ3Compressor,
    SZxCompressor,
    ZFPCompressor,
    sz2,
)
from repro.compression.base import pack_sections, unpack_sections
from repro.compression.errors import CorruptPayloadError
from repro.compression.stages import EntropyStage, unpack_stage_meta
from repro.core import FedSZCompressor
from repro.core.serializer import parse_fedsz_payload
from repro.nn.models import create_model

BLOCK = 256
RUN_BLOCKS = 8
SLAB_BLOCKS = 2
CODECS = {"sz2": SZ2Compressor, "sz3": SZ3Compressor, "szx": SZxCompressor, "zfp": ZFPCompressor}
DTYPES = ["float16", "float32", "float64"]
MODES = [ErrorBoundMode.REL, ErrorBoundMode.ABS]
BOUNDS = [1e-1, 1e-2, 1e-4]


@pytest.fixture
def small_slab(monkeypatch):
    monkeypatch.setattr(sz2, "_RUN_ELEMENTS", RUN_BLOCKS * BLOCK)
    monkeypatch.setattr(sz2, "_SLAB_ELEMENTS", SLAB_BLOCKS * BLOCK)


def _noise(size: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, 0.02, size)


def _members(block: int = BLOCK, run_blocks: int = RUN_BLOCKS):
    """``(label, float64 tensor)`` pairs; the labels say which edge each is for."""
    limit = run_blocks * block
    ramp = np.linspace(-0.05, 0.05, 3 * block)  # regression fits it: int8 codes at any bound
    sizes = [
        ("one-value", 1), ("block-1", block - 1), ("block", block), ("block+1", block + 1),
        ("fills-slab", 3 * block),  # 1 + 1 + 1 + 2 + 3 blocks: the run limit exactly
        ("fills-slab-a", 3 * block), ("fills-slab-b", 5 * block),  # and again, in two
        ("overflows-a", 3 * block), ("overflows-b", 5 * block + 1),  # one value too many
        ("before-big", block), ("big", 2 * limit + 7), ("after-big", block),
    ]
    members = [(label, _noise(size, seed)) for seed, (label, size) in enumerate(sizes)]
    members += [
        ("constant", np.full(2 * block, 0.25)),  # raw fallback inside a run
        ("after-constant", _noise(block + 3, 100)),
        ("empty", np.zeros(0)),  # raw fallback, no blocks at all
        ("smooth", ramp),
        ("noisy", 10.0 * _noise(3 * block, 101)),  # int16 codes at REL 1e-4, next to int8
    ]
    return members


def _digest(payloads) -> str:
    return hashlib.sha256(b"".join(payloads)).hexdigest()[:12]


#: ``_digest`` of ``[SZ2Compressor().compress(tensor.astype(dtype), bound, mode) ...]`` over
#: ``_members()`` at the parent commit, keyed by ``(dtype, mode, bound)``.
PARENT_SZ2_DIGESTS = {
    ("float16", "rel", 1e-1): "06b4b6084ed6",
    ("float16", "rel", 1e-2): "6e95383dabef",
    ("float16", "rel", 1e-4): "d11c63cce2ee",
    ("float16", "abs", 1e-1): "9ac9f53cac5f",
    ("float16", "abs", 1e-2): "d2c563c92652",
    ("float16", "abs", 1e-4): "6404311c40c6",
    ("float32", "rel", 1e-1): "6f6d28195a55",
    ("float32", "rel", 1e-2): "0f73f50ecdac",
    ("float32", "rel", 1e-4): "f0f82b2af013",
    ("float32", "abs", 1e-1): "453eeb61405b",
    ("float32", "abs", 1e-2): "539a0598781e",
    ("float32", "abs", 1e-4): "a7302a65a2cf",
    ("float64", "rel", 1e-1): "fbd3c224ca2b",
    ("float64", "rel", 1e-2): "2832139e75e3",
    ("float64", "rel", 1e-4): "8ac5e19d5df7",
    ("float64", "abs", 1e-1): "3f873364a106",
    ("float64", "abs", 1e-2): "c3ea3dc72ff7",
    ("float64", "abs", 1e-4): "b1d29684ac1b",
}


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", CODECS)
def test_a_group_is_coded_as_each_tensor_alone(name, dtype, mode, bound, small_slab):
    codec = CODECS[name]()
    tensors = [tensor.astype(dtype) for _, tensor in _members()]
    alone = [codec.compress(tensor, bound, mode) for tensor in tensors]
    # Every way the pipeline can hand the list over: all at once, and run by run.
    assert codec.compress_group(tensors, bound, mode) == alone
    runs = codec.group_slices([tensor.size for tensor in tensors])
    assert [i for run in runs for i in range(len(tensors))[run]] == list(range(len(tensors)))
    assert [p for run in runs for p in codec.compress_group(tensors[run], bound, mode)] == alone
    if name == "sz2":
        assert _digest(alone) == PARENT_SZ2_DIGESTS[(dtype, mode.value, bound)]

    expected = [codec.decompress(payload) for payload in alone]
    for restored in (
        codec.decompress_group(alone),
        [flat for run in runs for flat in codec.decompress_group(alone[run])],
    ):
        for (label, _), tensor, got, want in zip(
            _members(), tensors, restored, expected, strict=True
        ):
            assert got.dtype == tensor.dtype and got.shape == tensor.shape, label
            np.testing.assert_array_equal(got, want, err_msg=label)


def test_runs_cut_where_the_slab_is_full(small_slab):
    labels = [label for label, _ in _members()]
    sizes = [tensor.size for _, tensor in _members()]
    assert [labels[run] for run in SZ2Compressor().group_slices(sizes)] == [
        ["one-value", "block-1", "block", "block+1", "fills-slab"],
        ["fills-slab-a", "fills-slab-b"],
        ["overflows-a"],
        ["overflows-b", "before-big"],
        ["big"],  # a tensor of the run limit or more walks alone, in slabs
        ["after-big", "constant", "after-constant", "empty", "smooth"],
        ["noisy"],
    ]
    # The other codecs gain nothing from neighbours: one tensor a group.
    assert SZ3Compressor().group_slices(sizes) == [slice(i, i + 1) for i in range(len(sizes))]


def test_a_run_that_fits_walks_as_one_slab():
    """At the real limits: runs group up to 2^18 values and walk as one slab;
    only a lone tensor above that keeps 2^16-value slabs."""
    alexnet_tiny = [18432, 55296, 82944, 55296, 8192, 1280]  # its lossy partition
    mobilenetv2_tiny = [1536, 2304, 2304, 2304, 3072, 4096, 1152, 4096, 3072]  # the same
    codec = SZ2Compressor()
    assert codec.group_slices(alexnet_tiny) == [slice(0, 6)]
    assert codec.group_slices(mobilenetv2_tiny) == [slice(0, 9)]
    assert codec.group_slices([100_000, 90_000, 80_000]) == [slice(0, 2), slice(2, 3)]
    assert codec.group_slices([1 << 18, 1, (1 << 18) + 1]) == [
        slice(0, 1), slice(1, 2), slice(2, 3)
    ]
    blocks = sum(-(-size // BLOCK) for size in alexnet_tiny)
    assert sz2._slab_blocks(blocks, BLOCK) == blocks == 865
    assert sz2._slab_blocks(1024, BLOCK) == 1024  # 2^18 values: one slab
    assert sz2._slab_blocks(1025, BLOCK) == sz2._SLAB_ELEMENTS // BLOCK == 256
    assert sz2._slab_blocks(1, 1 << 20) == 1  # a block beyond both limits


#: Sizes of the mixed list below: 30K + 40K crosses the old 2^16-value run
#: limit, 100K + 90K + 80K the new 2^18 one, then exactly 2^18, one value over
#: it (a lone tensor in 2^16-value slabs), a 5-value tensor and a 70K one.
RUN_LIMIT_MIX = [30_000, 40_000, 100_000, 90_000, 80_000, 1 << 18, (1 << 18) + 1, 5, 70_000]
RUN_LIMIT_BOUNDS = {
    "rel-1e-2": (1e-2, ErrorBoundMode.REL),
    "rel-1e-3": (1e-3, ErrorBoundMode.REL),
    "abs-1e-3": (1e-3, ErrorBoundMode.ABS),
}


def _run_limit_input(name: str, dtype: str):
    if name == "mix":
        return [_noise(size, seed).astype(dtype) for seed, size in enumerate(RUN_LIMIT_MIX)]
    state = create_model(name, "tiny", seed=0).state_dict()
    return [  # the float tensors of at least 1,024 values
        np.asarray(value, dtype=dtype).ravel()
        for value in state.values()
        if np.issubdtype(np.asarray(value).dtype, np.floating) and np.asarray(value).size >= 1024
    ]


#: ``sha256(b"".join(SZ2Compressor().compress_group(_run_limit_input(name, dtype),
#: *RUN_LIMIT_BOUNDS[label])))[:16]`` at the commit before the run limit grew
#: to 2^18 values, keyed by ``(name, dtype, label)``.
PARENT_RUN_LIMIT_DIGESTS = {
    ("alexnet", "float32", "rel-1e-2"): "66826e50e5fbef42",
    ("alexnet", "float32", "rel-1e-3"): "de883e1412f33dee",
    ("alexnet", "float32", "abs-1e-3"): "6c4d9867825bf095",
    ("alexnet", "float64", "rel-1e-2"): "3ec08e4090971bd7",
    ("alexnet", "float64", "rel-1e-3"): "f2535f3ac619c2a1",
    ("alexnet", "float64", "abs-1e-3"): "c9b8ae5b2aebbd66",
    ("mobilenetv2", "float32", "rel-1e-2"): "c46c50ca1d514681",
    ("mobilenetv2", "float32", "rel-1e-3"): "da3aa34a55d92938",
    ("mobilenetv2", "float32", "abs-1e-3"): "a0ede5f743c2fc02",
    ("mobilenetv2", "float64", "rel-1e-2"): "ee5c246da45740c5",
    ("mobilenetv2", "float64", "rel-1e-3"): "6bde99f3faa024db",
    ("mobilenetv2", "float64", "abs-1e-3"): "8daac43221ab0977",
    ("mix", "float32", "rel-1e-2"): "7fcb3f5e6bc15b55",
    ("mix", "float32", "rel-1e-3"): "152a9ec31b8d5bec",
    ("mix", "float32", "abs-1e-3"): "02e01c7f58226d67",
    ("mix", "float64", "rel-1e-2"): "63156c19066bdc67",
    ("mix", "float64", "rel-1e-3"): "7c64fd0654cedef3",
    ("mix", "float64", "abs-1e-3"): "c6cccb731ae0179a",
}


@pytest.mark.parametrize(
    "case", PARENT_RUN_LIMIT_DIGESTS, ids=lambda case: "-".join(case)
)
def test_the_run_limit_moves_no_payload_byte(case):
    name, dtype, label = case
    tensors = _run_limit_input(name, dtype)
    payloads = SZ2Compressor().compress_group(tensors, *RUN_LIMIT_BOUNDS[label])
    digest = hashlib.sha256(b"".join(payloads)).hexdigest()[:16]
    assert digest == PARENT_RUN_LIMIT_DIGESTS[case]
    restored = SZ2Compressor().decompress_group(payloads)
    for got, payload in zip(restored, payloads, strict=True):
        np.testing.assert_array_equal(got, SZ2Compressor().decompress(payload))


def test_int8_and_int16_code_streams_share_a_run(small_slab):
    members = dict(_members())
    tensors = [members["smooth"].astype(np.float32), members["noisy"].astype(np.float32)]
    assert SZ2Compressor().group_slices([t.size for t in tensors]) == [slice(0, 2)]
    payloads = SZ2Compressor().compress_group(tensors, 1e-4, ErrorBoundMode.REL)
    widths = [
        EntropyStage.decode(unpack_sections(payload)["codes"]).dtype.itemsize
        for payload in payloads
    ]
    assert widths == [1, 2]
    assert payloads == [SZ2Compressor().compress(t, 1e-4, ErrorBoundMode.REL) for t in tensors]


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_dtypes_may_mix_within_a_run(mode, small_slab):
    tensors = [_noise(BLOCK + 5, seed).astype(dtype) for seed, dtype in enumerate(DTYPES * 2)]
    codec = SZ2Compressor()
    assert codec.group_slices([t.size for t in tensors]) == [slice(0, 4), slice(4, 6)]
    payloads = codec.compress_group(tensors, 1e-2, mode)
    assert payloads == [codec.compress(tensor, 1e-2, mode) for tensor in tensors]
    for tensor, restored in zip(tensors, codec.decompress_group(payloads), strict=True):
        assert restored.dtype == tensor.dtype
        alone = codec.decompress(codec.compress(tensor, 1e-2, mode))
        np.testing.assert_array_equal(restored, alone)


def test_block_size_from_lossy_options_reaches_the_group_walk(monkeypatch):
    monkeypatch.setattr(sz2, "_RUN_ELEMENTS", 8 * 64)
    monkeypatch.setattr(sz2, "_SLAB_ELEMENTS", 8 * 64)
    state = {
        f"layer{index}.weight": _noise(size, index).astype(np.float32).reshape(-1, 1)
        for index, size in enumerate([130, 64, 190, 8 * 64 + 1, 63, 200])
    }
    codec = FedSZCompressor(
        error_bound=1e-2, lossy_options={"block_size": 64}, partition_threshold=50
    )
    payload = codec.compress(state)
    _, lossy_payloads, _ = parse_fedsz_payload(payload)
    alone = SZ2Compressor(block_size=64)
    assert lossy_payloads == {
        name: alone.compress(tensor.ravel(), 1e-2) for name, tensor in state.items()
    }
    restored = codec.decompress(payload)
    for name, tensor in state.items():
        expected = alone.decompress(lossy_payloads[name]).reshape(tensor.shape)
        np.testing.assert_array_equal(restored[name], expected)


def test_payloads_of_another_block_size_decode_alone(small_slab):
    """Decode runs are cut from each payload's own metadata: whatever the
    decoder is configured with, and whoever its neighbours are."""
    tensors = [_noise(BLOCK + 9, seed).astype(np.float32) for seed in range(5)]
    blocks = [256, 256, 64, 256, 64]
    payloads = [
        SZ2Compressor(block_size=block).compress(tensor, 1e-2)
        for block, tensor in zip(blocks, tensors, strict=True)
    ]
    decoder = SZ2Compressor(block_size=32)
    for restored, payload in zip(decoder.decompress_group(payloads), payloads, strict=True):
        np.testing.assert_array_equal(restored, decoder.decompress(payload))


# ----------------------------------------------------------------------
# Allocation: a list of small tensors costs what one large tensor costs
# ----------------------------------------------------------------------
def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_slab_groups_keep_the_allocation_ceiling_of_one_large_tensor():
    """256 tensors of 4,096 values: every run fills the real run limit exactly,
    and only one run's codes and slab buffers are alive at a time.  A run
    walks as one 2^18-value slab (``test_sz2_kernel.py`` pins its 10x), so
    encode measures 2.55x the 4 MB list (0.85x with 2^16-value runs) against
    a ceiling of 3x; decode 2.43x against the 2.5x a large tensor is held to."""
    tensors = [_noise(4096, seed).astype(np.float32) for seed in range(256)]
    nbytes = sum(tensor.nbytes for tensor in tensors)
    codec = SZ2Compressor()
    runs = codec.group_slices([tensor.size for tensor in tensors])
    assert [run.stop - run.start for run in runs] == [sz2._RUN_ELEMENTS // 4096] * 4
    peak = _traced_peak(lambda: codec.compress_group(tensors, 1e-2))
    assert peak <= 3.0 * nbytes, f"compress peak {peak / nbytes:.2f}x the input"
    payloads = codec.compress_group(tensors, 1e-2)
    peak = _traced_peak(lambda: codec.decompress_group(payloads))
    assert peak <= 2.5 * nbytes, f"decompress peak {peak / nbytes:.2f}x the input"


# ----------------------------------------------------------------------
# Forged stage metadata fails closed
# ----------------------------------------------------------------------
def _with_meta(payload: bytes, old: bytes, new: bytes) -> bytes:
    sections = unpack_sections(payload)
    assert sections["meta"].count(old) == 1
    sections["meta"] = sections["meta"].replace(old, new)
    return pack_sections(sections)


@pytest.mark.parametrize("forged", [b",f4", b"<U4", b"<i4", b"|b1", b"<c8", b"<f3"])
@pytest.mark.parametrize("name", CODECS)
def test_a_forged_meta_dtype_is_a_corrupt_payload(name, forged, rng):
    """``',f4'`` used to reach numpy's dtype parser (``SyntaxError``); ``'<U4'``
    and ``'<i4'`` were accepted as the dtype of a lossy tensor."""
    codec = CODECS[name]()
    payload = codec.compress(rng.normal(0.0, 0.02, 600).astype(np.float32), 1e-2)
    with pytest.raises(CorruptPayloadError):
        codec.decompress(_with_meta(payload, b"<f4", forged))
    with pytest.raises(CorruptPayloadError):
        unpack_stage_meta(unpack_sections(_with_meta(payload, b"<f4", forged))["meta"], name)


@pytest.mark.parametrize(
    "old,new",
    [
        (b'"block_size": 256', b'"block_size": 0  '),
        (b'"block_size": 256', b'"block_size": -64'),
        (b'"block_size": 256', b'"block_size": "x"'),
        (b'"block_size": 256', b'"block_sizes": 25'),
        (b'"offset": 0.0', b'"offset": NaN'),
        (b'"offset": 0.0', b'"offset": [1]'),
    ],
    ids=["zero-block", "negative-block", "string-block", "no-block", "nan-offset", "list-offset"],
)
def test_forged_sz2_walk_parameters_are_a_corrupt_payload(old, new, rng):
    payload = SZ2Compressor().compress(rng.normal(0.0, 0.02, 600).astype(np.float32), 1e-2)
    with pytest.raises(CorruptPayloadError):
        SZ2Compressor().decompress(_with_meta(payload, old, new))


def test_meta_whose_shape_and_size_disagree_is_a_corrupt_payload(rng):
    data = rng.normal(0.0, 0.02, (30, 20)).astype(np.float32)
    payload = SZ2Compressor().compress(data, 1e-2)
    sections = unpack_sections(payload)
    forged = sections["meta"].replace((30).to_bytes(8, "little"), (31).to_bytes(8, "little"))
    assert forged != sections["meta"]
    with pytest.raises(CorruptPayloadError):
        SZ2Compressor().decompress(pack_sections({**sections, "meta": forged}))
