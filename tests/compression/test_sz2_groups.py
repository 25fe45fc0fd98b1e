"""Tensors coded as a group must come out as if each had been coded alone.

``compress_group`` / ``decompress_group`` hand a codec consecutive tensors in
one call; SZ2 walks a run of small ones as one slab (``sz2._runs``) with a
bin width per row, and a lone tensor above the run limit in slabs.  The golden
corpus (``tests/golden/``) codes ``group_members()``, built to land on every
edge of that walk at a run limit shrunk to eight blocks and a slab of two, as
one group for every codec x dtype x mode x bound, and the tiny models' updates
and a list crossing the old and the new run limit at the real limits: each
must equal its tensors coded alone, and its bytes are pinned there.  Here:
where the runs are cut, runs that mix code widths and dtypes, the block size
from ``lossy_options``, the allocation ceiling and forged metadata.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from golden.cases import group_members, noise
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

BLOCK = 256
RUN_BLOCKS = 8
SLAB_BLOCKS = 2
CODECS = {"sz2": SZ2Compressor, "sz3": SZ3Compressor, "szx": SZxCompressor, "zfp": ZFPCompressor}
DTYPES = ["float16", "float32", "float64"]
MODES = [ErrorBoundMode.REL, ErrorBoundMode.ABS]


@pytest.fixture
def small_slab(monkeypatch):
    monkeypatch.setattr(sz2, "_RUN_ELEMENTS", RUN_BLOCKS * BLOCK)
    monkeypatch.setattr(sz2, "_SLAB_ELEMENTS", SLAB_BLOCKS * BLOCK)


def test_runs_cut_where_the_slab_is_full(small_slab):
    labels = [label for label, _ in group_members()]
    tensors = [tensor.astype(np.float32) for _, tensor in group_members()]
    codec = SZ2Compressor()
    runs = codec.group_slices([tensor.size for tensor in tensors])
    assert [labels[run] for run in runs] == [
        ["one-value", "block-1", "block", "block+1", "fills-slab"],
        ["fills-slab-a", "fills-slab-b"],
        ["overflows-a"],
        ["overflows-b", "before-big"],
        ["big"],  # a tensor of the run limit or more walks alone, in slabs
        ["after-big", "constant", "after-constant", "empty", "smooth"],
        ["noisy"],
    ]
    # Handed over run by run, the list codes and decodes as it does whole.
    payloads = codec.compress_group(tensors, 1e-2)
    assert [p for run in runs for p in codec.compress_group(tensors[run], 1e-2)] == payloads
    restored = [flat for run in runs for flat in codec.decompress_group(payloads[run])]
    for got, want in zip(restored, codec.decompress_group(payloads), strict=True):
        np.testing.assert_array_equal(got, want)
    # The other codecs gain nothing from neighbours: one tensor a group.
    sizes = [tensor.size for tensor in tensors]
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


def test_int8_and_int16_code_streams_share_a_run(small_slab):
    members = dict(group_members())
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
    tensors = [noise(BLOCK + 5, seed).astype(dtype) for seed, dtype in enumerate(DTYPES * 2)]
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
        f"layer{index}.weight": noise(size, index).astype(np.float32).reshape(-1, 1)
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
    tensors = [noise(BLOCK + 9, seed).astype(np.float32) for seed in range(5)]
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
    tensors = [noise(4096, seed).astype(np.float32) for seed in range(256)]
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
