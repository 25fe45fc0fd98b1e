"""The slab walk of SZ2 must not move a byte, wherever the slab boundaries fall.

``SZ2Predictor`` encodes and decodes a tensor of up to ``sz2._RUN_ELEMENTS``
values as one slab, and a larger one in slabs of ``sz2._SLAB_ELEMENTS``
values.  Every payload here is compared with a digest recorded at the parent
commit (whole-tensor kernels; zlib 1.2.13, on which the bytes depend; the
sizes around the run limit at the commit before it) and every reconstruction
with ``ReferenceSZ2Compressor``, with both limits at their real sizes and both
shrunk to four blocks, so tensors end before, on and after a boundary, tail
padding lands inside a last slab, the majority mode flips from slab to slab
and one slab alone needs 64-bit codes.  The other
codecs now upcast their input themselves; their payload digests are pinned too.
"""

from __future__ import annotations

import hashlib

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
from repro.compression.base import unpack_sections
from repro.compression.bitstream import unpack_bit_flags
from _reference.codecs import ReferenceSZ2Compressor
from repro.compression.stages import EntropyStage
from repro.core import FedSZCompressor

REAL_SLAB = sz2._SLAB_ELEMENTS
REAL_RUN = sz2._RUN_ELEMENTS
SMALL_SLAB_BLOCKS = 4
MODES = {"REL": (1e-2, ErrorBoundMode.REL), "ABS": (2e-4, ErrorBoundMode.ABS)}


@pytest.fixture(params=["real-slab", "4-block-slab"])
def slab_blocks(request, monkeypatch):
    """Run the test at the real slab and run sizes and at four blocks for both."""

    def apply(block: int) -> int:
        if request.param == "4-block-slab":
            monkeypatch.setattr(sz2, "_SLAB_ELEMENTS", SMALL_SLAB_BLOCKS * block)
            monkeypatch.setattr(sz2, "_RUN_ELEMENTS", SMALL_SLAB_BLOCKS * block)
        return sz2._SLAB_ELEMENTS // block

    return apply


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:8]


def _sz2(block: int) -> SZ2Compressor:
    codec = SZ2Compressor()
    codec.block_size = block  # set after construction, as ``lossy_options`` does
    return codec


def _sizes(block: int):
    sizes = {1, block - 1, block, block + 1}
    for slab in (SMALL_SLAB_BLOCKS * block, REAL_SLAB):
        sizes |= {slab - 1, slab, slab + 1, 3 * slab + 7}
    return sorted(sizes | {REAL_RUN, REAL_RUN + 1})


def _weights(size: int, dtype) -> np.ndarray:
    """Weight-like noise with a smooth stretch, so both modes get blocks."""
    rng = np.random.default_rng(size)
    values = rng.normal(0.0, 0.02, size)
    values[size // 3 : size // 2] = np.linspace(-0.05, 0.05, size // 2 - size // 3)
    return values.astype(dtype)


#: ``_digest(_sz2(block).compress(_weights(size, dtype), *MODES[mode]))`` at the
#: parent commit, keyed by ``size``.
PARENT_PAYLOAD_DIGESTS = {
    (4, "float32", "REL"): {
        1: "31a006ed", 3: "50e02369", 4: "510ec687", 5: "d05c275b",
        15: "35209e4a", 16: "e084419e", 17: "aee71d76", 55: "882347d4",
        65535: "8417624f", 65536: "b68c2a65", 65537: "0a1182ff", 196615: "b347d5f4",
        262144: "b47e7e22", 262145: "aceaada5",
    },
    (4, "float32", "ABS"): {
        1: "04ff9522", 3: "0b810ae7", 4: "8c318182", 5: "bbae8a36",
        15: "256febfb", 16: "bfb1483a", 17: "7b31b82e", 55: "46b71735",
        65535: "93e09213", 65536: "08310f6a", 65537: "ebd21687", 196615: "b0d4dffe",
        262144: "dddd002e", 262145: "62420eaf",
    },
    (4, "float64", "REL"): {
        1: "2e30f9d0", 3: "44177ffa", 4: "c894818e", 5: "4a565850",
        15: "618672f5", 16: "2bd6ae27", 17: "568d8402", 55: "02998e43",
        65535: "96790d59", 65536: "4b97cbea", 65537: "fcd3ff36", 196615: "49d36968",
        262144: "5961aa63", 262145: "3a88d454",
    },
    (4, "float64", "ABS"): {
        1: "3d596b51", 3: "4ba7ea29", 4: "96f57477", 5: "53b9c73c",
        15: "f41e45c9", 16: "c3ed27c6", 17: "644f4235", 55: "03f30f8c",
        65535: "f4eb2a08", 65536: "a0a45fd1", 65537: "963057ee", 196615: "0ed461b9",
        262144: "e420294b", 262145: "1f637bfa",
    },
    (256, "float32", "REL"): {
        1: "e80368b3", 255: "602bf663", 256: "a2a05b09", 257: "ef9fcd2a",
        1023: "889419cc", 1024: "bd479a65", 1025: "72aeaa48", 3079: "1a3ca987",
        65535: "eb7b38ad", 65536: "de9ef87e", 65537: "ab3289b5", 196615: "8f6a1f28",
        262144: "16257d1e", 262145: "edd75e4c",
    },
    (256, "float32", "ABS"): {
        1: "4ca628cf", 255: "0456e781", 256: "529c6a5c", 257: "d609dc76",
        1023: "4263b2c9", 1024: "0bba9515", 1025: "1bfa8a89", 3079: "132a0a29",
        65535: "41ffa4fe", 65536: "2a0e5537", 65537: "ceac979f", 196615: "1f2515a7",
        262144: "0717adec", 262145: "d61ed581",
    },
    (256, "float64", "REL"): {
        1: "ab8a8ec0", 255: "f811ab0b", 256: "e39182f8", 257: "64f1bf2f",
        1023: "70b040d0", 1024: "920a39cf", 1025: "1ba52263", 3079: "fdb2dafa",
        65535: "7a1735df", 65536: "98ce430b", 65537: "11c60cf3", 196615: "4a7d6184",
        262144: "2a0a5218", 262145: "bdb4b625",
    },
    (256, "float64", "ABS"): {
        1: "324e0cc7", 255: "88eb311e", 256: "3e10563b", 257: "f50fb143",
        1023: "eab33b57", 1024: "4c5c1e53", 1025: "da0aba60", 3079: "80d13aac",
        65535: "3289d5ed", 65536: "31381b12", 65537: "c099df35", 196615: "8a3410ec",
        262144: "3bf40bd2", 262145: "eeee8b07",
    },
}


@pytest.mark.parametrize("case", PARENT_PAYLOAD_DIGESTS, ids=lambda case: "b{}-{}-{}".format(*case))
def test_every_slab_boundary_gives_the_parent_bytes(case, slab_blocks):
    block, dtype, mode = case
    slab_blocks(block)
    golden = PARENT_PAYLOAD_DIGESTS[case]
    assert sorted(golden) == _sizes(block), "sizes follow sz2._SLAB_ELEMENTS: record them again"
    # Shrunk, the real run limit's sizes are only lone tensors of many slabs
    # more, at 16K slab steps for four-value blocks: they are pinned at the real limits.
    sizes = [size for size in golden if size < REAL_RUN or sz2._RUN_ELEMENTS == REAL_RUN]
    digests = {}
    for size in sizes:
        data = _weights(size, dtype)
        payload = _sz2(block).compress(data, *MODES[mode])
        digests[size] = _digest(payload)
        reference = ReferenceSZ2Compressor(block_size=block)
        expected = reference.decompress(reference.compress(data, *MODES[mode]))
        restored = _sz2(block).decompress(payload)
        assert restored.dtype == data.dtype
        np.testing.assert_array_equal(restored, expected, err_msg=f"{size=}")
    assert digests == {size: golden[size] for size in sizes}


def _slabwise_mixed(block: int, blocks_per_slab: int, lorenzo_shares) -> np.ndarray:
    """One slab per share: that fraction of its blocks is one period of a
    sine (Lorenzo wins), the rest noise (regression wins)."""
    rng = np.random.default_rng(len(lorenzo_shares) * blocks_per_slab)
    blocks = blocks_per_slab * len(lorenzo_shares)
    phase = np.linspace(0.0, 2.0 * np.pi, block, endpoint=False) + rng.uniform(size=(blocks, 1))
    smooth = 0.05 * np.sin(phase) + rng.normal(0.0, 0.3, size=(blocks, 1))
    noise = rng.normal(0.0, 0.3, (blocks, block))
    threshold = np.repeat(np.asarray(lorenzo_shares, dtype=np.float64), blocks_per_slab)
    pick = (np.arange(blocks) % blocks_per_slab) < threshold * blocks_per_slab
    return np.where(pick[:, None], smooth, noise).astype(np.float32).ravel()


#: Payload digests of ``_slabwise_mixed`` at the parent commit, by blocks a slab.
PARENT_MIXED_DIGESTS = {
    256: "e157f0b2",
    4: "3ef29f79",
}


def test_majority_mode_may_differ_from_slab_to_slab(slab_blocks):
    """Encode overwrites, and decode redoes, the rows of the mode that is
    rarer *in the slab*: both directions occur inside one tensor."""
    block = 256
    per_slab = slab_blocks(block)
    data = _slabwise_mixed(block, per_slab, [0.25, 0.75, 0.0, 1.0, 0.75, 0.25])
    payload = SZ2Compressor().compress(data, 1e-3)
    modes = unpack_bit_flags(unpack_sections(payload)["modes"], data.size // block)
    regression_share = modes.reshape(-1, per_slab).mean(axis=1)
    assert (regression_share > 0.5).any() and (regression_share < 0.5).any()
    assert ((0 < regression_share) & (regression_share < 0.5)).any()  # Lorenzo slab, rows redone
    assert ((0.5 < regression_share) & (regression_share < 1)).any()  # and the other way round
    assert _digest(payload) == PARENT_MIXED_DIGESTS[per_slab]
    expected = ReferenceSZ2Compressor().decompress(ReferenceSZ2Compressor().compress(data, 1e-3))
    np.testing.assert_array_equal(SZ2Compressor().decompress(payload), expected)


#: Payload digests of the tensor below at the parent commit, by blocks a slab
#: (256: the four-slab tensor, recorded at the commit before the run limit).
PARENT_WIDE_TAIL_DIGESTS = {
    256: "5affdc0f",
    4: "d0131858",
}


def test_only_the_last_slab_needs_64_bit_codes(slab_blocks, rng):
    """Earlier slabs were stored as int32; the output is widened once, late.
    The tensor is at least three slabs and over the run limit, so it walks in slabs."""
    block = 256
    per_slab = slab_blocks(block)
    slabs = max(3, -(-sz2._RUN_ELEMENTS // (per_slab * block)))
    data = rng.normal(0.0, 1.0, slabs * per_slab * block + 7)
    data[-5:] = 1e7  # 1e7 / 2e-4 = 5e10 >= 2**30, in the last slab alone
    bound, mode = MODES["ABS"]
    payload = SZ2Compressor().compress(data, bound, mode)
    codes = EntropyStage.decode(unpack_sections(payload)["codes"])
    assert codes.dtype.itemsize == 8
    assert np.abs(codes[: slabs * per_slab * block]).max() < 2**30
    assert _digest(payload) == PARENT_WIDE_TAIL_DIGESTS[per_slab]
    reference = ReferenceSZ2Compressor()
    expected = reference.decompress(reference.compress(data, bound, mode))
    np.testing.assert_array_equal(SZ2Compressor().decompress(payload), expected)


@pytest.mark.parametrize("size", [0, 3 * REAL_SLAB + 7], ids=["empty", "constant"])
def test_empty_and_constant_tensors_still_take_the_raw_fallback(size):
    data = np.full(size, 0.25, dtype=np.float32)
    payload = SZ2Compressor().compress(data, 1e-2)
    assert "raw" in unpack_sections(payload) and "codes" not in unpack_sections(payload)
    np.testing.assert_array_equal(SZ2Compressor().decompress(payload), data)


def test_block_size_from_lossy_options_reaches_the_slab_walk(monkeypatch):
    monkeypatch.setattr(sz2, "_SLAB_ELEMENTS", 16)
    monkeypatch.setattr(sz2, "_RUN_ELEMENTS", 16)
    state = {"layer.weight": _weights(4099, np.float32).reshape(-1, 1)}
    codec = FedSZCompressor(
        error_bound=1e-2, lossy_options={"block_size": 4}, partition_threshold=100
    )
    restored = codec.decompress(codec.compress(state))["layer.weight"]
    reference = ReferenceSZ2Compressor(block_size=4)
    expected = reference.decompress(reference.compress(state["layer.weight"], 1e-2))
    np.testing.assert_array_equal(restored, expected)


#: ``_digest(codec().compress(_weights(5003, dtype), *MODES[mode]))`` at the
#: parent commit, where the base class still upcast the tensor for every codec.
PARENT_OTHER_CODEC_DIGESTS = {
    ("sz3", "float32", "REL"): "dd1bd1fd",
    ("sz3", "float32", "ABS"): "590e6f2e",
    ("sz3", "float64", "REL"): "5cec3d8a",
    ("sz3", "float64", "ABS"): "008fa14d",
    ("szx", "float32", "REL"): "3820845c",
    ("szx", "float32", "ABS"): "1247dcc4",
    ("szx", "float64", "REL"): "246651f2",
    ("szx", "float64", "ABS"): "69858301",
    ("zfp", "float32", "REL"): "bcb793d0",
    ("zfp", "float32", "ABS"): "00910611",
    ("zfp", "float64", "REL"): "66fb2540",
    ("zfp", "float64", "ABS"): "60fe30b7",
}


@pytest.mark.parametrize(
    "case", PARENT_OTHER_CODEC_DIGESTS, ids=lambda case: "{}-{}-{}".format(*case)
)
def test_codecs_that_upcast_for_themselves_write_the_parent_bytes(case):
    name, dtype, mode = case
    codec = {"sz3": SZ3Compressor, "szx": SZxCompressor, "zfp": ZFPCompressor}[name]()
    payload = codec.compress(_weights(5003, dtype), *MODES[mode])
    assert _digest(payload) == PARENT_OTHER_CODEC_DIGESTS[case]
