"""SZ3's level walk as strided slices, pinned against the index-array walk.

``repro.compression.sz3`` visits the points of a level as slices of
``reconstruction[::2 * stride]``.  The walk it replaced gathered the same
points through index arrays; that version is kept here, verbatim, as the
reference: the slice walk must predict every point of every level from the
same neighbours with the same float operations, so predictions are compared
element-exact.  Whole payloads are pinned in the golden corpus
(``tests/golden/``), recorded after the slice walk had kept the index walk's.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from golden.cases import weights
from repro.compression import SZ3Compressor
from repro.compression.base import pack_sections, unpack_sections
from repro.compression.errors import CorruptPayloadError
from repro.compression.stages import EntropyStage
from repro.compression.sz3 import _interpolation_strides, _predict

_CUBIC_WEIGHTS = (-1.0 / 16.0, 9.0 / 16.0, 9.0 / 16.0, -1.0 / 16.0)

SIZES = list(range(1, 71)) + [1023, 1024, 1025, 5001, 65_537]


def _reference_predict(reconstruction, targets, stride, size, use_cubic):
    """``_predict`` as it was before the slice walk (fancy-index gathers)."""
    left = reconstruction[targets - stride]
    right_index = targets + stride
    has_right = right_index < size
    right = np.where(has_right, reconstruction[np.minimum(right_index, size - 1)], left)
    predictions = np.where(has_right, 0.5 * (left + right), left)

    if use_cubic:
        far_left_index = targets - 3 * stride
        far_right_index = targets + 3 * stride
        has_cubic = (far_left_index >= 0) & (far_right_index < size) & has_right
        if np.any(has_cubic):
            w0, w1, w2, w3 = _CUBIC_WEIGHTS
            cubic = (
                w0 * reconstruction[np.maximum(far_left_index, 0)]
                + w1 * left
                + w2 * right
                + w3 * reconstruction[np.minimum(far_right_index, size - 1)]
            )
            predictions = np.where(has_cubic, cubic, predictions)
    return predictions


@pytest.mark.parametrize("use_cubic", [True, False], ids=["cubic", "linear"])
def test_slice_walk_predicts_exactly_what_the_index_walk_did(use_cubic):
    rng = np.random.default_rng(3)
    for size in SIZES:
        # Every point holds a value, so a neighbour read from the wrong place
        # (or past a boundary) cannot go unnoticed.
        reconstruction = rng.normal(0.0, 1.0, size)
        visited = np.zeros(size, dtype=bool)
        visited[:1] = True
        for stride in _interpolation_strides(size):
            targets = np.arange(stride, size, 2 * stride)
            expected = _reference_predict(reconstruction, targets, stride, size, use_cubic)
            actual = _predict(reconstruction[:: 2 * stride], targets.size, use_cubic)
            assert actual.dtype == expected.dtype
            np.testing.assert_array_equal(actual, expected, err_msg=f"{size=} {stride=}")
            assert reconstruction[stride :: 2 * stride].size == targets.size
            visited[stride :: 2 * stride] = True
        assert visited.all(), f"{size=}: the levels do not cover every point"


def test_encode_allocation_peak_is_bounded():
    """The level codes go into one preallocated array and the levels read the
    tensor in its own dtype.  Measured 6.75x MobileNetV2-paper's largest tensor
    (409,600 float32 values) at REL 1e-2: the float64 reconstruction, the codes
    and the finest level's predictions; 8.0x with a float64 copy of the tensor
    and the codes as a concatenated list."""
    data = weights(409_600, "float32")
    tracemalloc.start()
    try:
        SZ3Compressor().compress(data, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.0 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the input"


@pytest.mark.parametrize("extra", [100, 1, -1], ids=["100-more", "1-more", "1-fewer"])
def test_code_count_must_match_the_tensor(extra):
    """The walk consumes exactly ``size`` codes; trailing ones used to decode
    silently, as the honest tensor."""
    data = weights(5001, "float32")
    sections = unpack_sections(SZ3Compressor().compress(data, 1e-2))
    codes = EntropyStage.decode(sections["codes"])
    forged = np.concatenate([codes, np.zeros(extra, codes.dtype)]) if extra > 0 else codes[:extra]
    sections["codes"] = EntropyStage().encode(forged)
    with pytest.raises(CorruptPayloadError, match="quantization codes"):
        SZ3Compressor().decompress(pack_sections(sections))
