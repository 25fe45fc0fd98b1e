"""SZ3-style error-bounded lossy compressor, as a predictor stage.

SZ3 (Liang et al., IEEE TBD 2023; Zhao et al., ICDE 2021) replaces SZ2's
blockwise Lorenzo/regression hybrid with a multi-level dynamic spline
interpolation predictor: the data are refined level by level, and each new
point is predicted from already-reconstructed neighbours with linear or cubic
interpolation before its residual is quantized.  SZ3 is itself architected as
a modular predictor/quantizer/encoder pipeline — exactly the decomposition
:mod:`repro.compression.stages` provides — so this module holds only the
multi-level interpolation predictor:

* a binary multi-level refinement over the flattened tensor, processing
  strides ``2^k, 2^{k-1}, …, 1``;
* per-point cubic interpolation when four reconstructed neighbours exist,
  falling back to linear interpolation and finally to previous-value
  prediction near the boundaries.

Prediction always uses *reconstructed* values, so the decompressor can follow
the identical schedule and the error bound holds exactly.

The points of the level at ``stride`` are ``stride, 3·stride, 5·stride, …``
and their neighbours at ``±stride`` and ``±3·stride`` are consecutive points
of ``reconstruction[::2·stride]``, the levels above.  So a level is walked
with strided slices of that one view — values, targets and all four
neighbours — and the boundary cases are where the slices end; no index array
is built or gathered through.  Each prediction is the same float operations
in the same order on the same neighbours as the index-array walk of the
pre-refactor implementation, so codes, payload bytes and reconstructions are
bit-identical to it (``tests/compression/test_sz3_slice_walk.py`` keeps that
walk as the reference).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from repro.compression.errors import CorruptPayloadError
from repro.compression.stages import (
    EntropyStage,
    PredictorStage,
    Quantizer,
    StageContext,
    StagedCompressor,
)

#: Classic 4-point cubic interpolation weights used by SZ3's spline predictor:
#: ``(outer, inner, inner, outer)`` over the two neighbours on either side.
_CUBIC_OUTER_WEIGHT = -1.0 / 16.0
_CUBIC_INNER_WEIGHT = 9.0 / 16.0


class SZ3Predictor(PredictorStage):
    """Multi-level spline interpolation prediction (SZ3 analogue)."""

    name = "sz3-interpolation"

    def __init__(self, use_cubic: bool, entropy: EntropyStage) -> None:
        self.use_cubic = bool(use_cubic)
        self.entropy = entropy

    def prepare(self, flat: np.ndarray, ctx: StageContext) -> None:
        super().prepare(flat, ctx)
        ctx.params["use_cubic"] = self.use_cubic

    def encode(self, flat: np.ndarray, ctx: StageContext) -> Dict[str, bytes]:
        # The quantizer upcasts what it reads of ``flat``, so no float64 copy is kept.
        reconstruction = np.zeros(flat.size, dtype=np.float64)

        # Anchor point: the first element is quantized against zero.
        bound = ctx.absolute_bound
        anchor = Quantizer.encode(flat[:1], 0.0, bound)
        reconstruction[:1] = Quantizer.decode(anchor, 0.0, bound)
        codes = np.empty(flat.size, dtype=anchor.dtype)  # widened once if a level needs it
        codes[:1], cursor = anchor, 1

        for stride in _interpolation_strides(flat.size):
            targets = reconstruction[stride :: 2 * stride]
            predictions = _predict(reconstruction[:: 2 * stride], targets.size, self.use_cubic)
            level_codes = Quantizer.encode(flat[stride :: 2 * stride], predictions, bound)
            Quantizer.decode(level_codes, predictions, bound, out=targets)
            if level_codes.itemsize > codes.itemsize:
                codes = codes.astype(level_codes.dtype)
            codes[cursor : cursor + targets.size] = level_codes
            cursor += targets.size

        return {"codes": self.entropy.encode(codes)}

    def decode(self, sections: Mapping[str, bytes], ctx: StageContext) -> np.ndarray:
        size, bound = ctx.size, ctx.absolute_bound
        use_cubic = ctx.params.get("use_cubic")
        if not isinstance(use_cubic, bool):
            raise CorruptPayloadError(f"sz3 payload declares use_cubic {use_cubic!r}")

        all_codes = EntropyStage.decode(sections["codes"])
        if all_codes.size != size:
            raise CorruptPayloadError(
                f"sz3 payload holds {all_codes.size} quantization codes for {size} values"
            )
        reconstruction = np.zeros(size, dtype=np.float64)
        reconstruction[:1] = all_codes[:1] * ctx.bin_width
        cursor = 1

        for stride in _interpolation_strides(size):
            targets = reconstruction[stride :: 2 * stride]
            level_codes = all_codes[cursor : cursor + targets.size]
            cursor += targets.size
            predictions = _predict(reconstruction[:: 2 * stride], targets.size, use_cubic)
            Quantizer.decode(level_codes, predictions, bound, out=targets)

        return reconstruction


class SZ3Compressor(StagedCompressor):
    """Multi-level interpolation predictor compressor (SZ3 analogue)."""

    name = "sz3"
    pool_min_values = 1 << 16

    def __init__(self, compression_level: int = 6, use_cubic: bool = True) -> None:
        self.compression_level = int(compression_level)
        self.use_cubic = bool(use_cubic)

    def _predictor(self) -> SZ3Predictor:
        return SZ3Predictor(self.use_cubic, EntropyStage(self.compression_level))


def _interpolation_strides(size: int) -> List[int]:
    """Strides processed from coarsest to finest for an array of ``size``."""
    if size <= 1:
        return []
    strides: List[int] = []
    stride = 1
    while stride < size:
        strides.append(stride)
        stride *= 2
    return list(reversed(strides))


def _predict(coarse: np.ndarray, count: int, use_cubic: bool) -> np.ndarray:
    """Interpolate the ``count`` points of one level from the level above.

    ``coarse`` is ``reconstruction[::2 * stride]``, the points every coarser
    level has already reconstructed; target ``j`` of the level sits half-way
    between ``coarse[j]`` and ``coarse[j + 1]``, so each neighbour gather is a
    slice of ``coarse`` and the boundary cases are the slice ends.  The left
    neighbour always exists.  Without a right neighbour (only ever the last
    target) previous-value prediction is used, matching SZ3's boundary
    fallback; cubic interpolation needs two neighbours on both sides, which
    leaves linear interpolation for the first target and the last one or two.
    """
    predictions = np.empty(count, dtype=np.float64)
    paired = coarse.size - 1  # targets that have a right neighbour
    if use_cubic and paired >= 3:
        # Each weighted point serves two targets (the weights are symmetric),
        # so weigh the level once and add the four shifted slices in order.
        outer = coarse * _CUBIC_OUTER_WEIGHT
        inner = coarse * _CUBIC_INNER_WEIGHT
        interior = predictions[1 : paired - 1]
        np.add(outer[:-3], inner[1:-2], out=interior)
        interior += inner[2:-1]
        interior += outer[3:]
        predictions[0] = 0.5 * (coarse[0] + coarse[1])
        predictions[paired - 1] = 0.5 * (coarse[paired - 1] + coarse[paired])
    else:
        np.add(coarse[:-1], coarse[1:], out=predictions[:paired])
        predictions[:paired] *= 0.5
    if count > paired:
        predictions[paired] = coarse[paired]
    return predictions
