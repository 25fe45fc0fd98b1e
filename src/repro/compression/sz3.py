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
the identical schedule and the error bound holds exactly; outputs are
bit-identical to the pre-refactor implementation.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from repro.compression.entropy import EntropyBackend
from repro.compression.errors import CorruptPayloadError
from repro.compression.stages import (
    EntropyStage,
    PredictorStage,
    Quantizer,
    StageContext,
    StagedCompressor,
)

#: Classic 4-point cubic interpolation weights used by SZ3's spline predictor.
_CUBIC_WEIGHTS = (-1.0 / 16.0, 9.0 / 16.0, 9.0 / 16.0, -1.0 / 16.0)


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
        reconstruction = np.zeros_like(flat)

        # Anchor point: the first element is quantized against zero.
        codes: List[np.ndarray] = [Quantizer.encode(flat[:1], 0.0, ctx)]
        reconstruction[:1] = Quantizer.decode(codes[0], 0.0, ctx)

        for stride in _interpolation_strides(flat.size):
            targets = np.arange(stride, flat.size, 2 * stride)
            if targets.size == 0:
                continue
            predictions = _predict(reconstruction, targets, stride, flat.size, self.use_cubic)
            level_codes = Quantizer.encode(flat[targets], predictions, ctx)
            reconstruction[targets] = Quantizer.decode(level_codes, predictions, ctx)
            codes.append(level_codes)

        return {"codes": self.entropy.encode(np.concatenate(codes))}

    def decode(self, sections: Mapping[str, bytes], ctx: StageContext) -> np.ndarray:
        size = ctx.size
        bin_width = ctx.bin_width
        use_cubic = bool(ctx.params["use_cubic"])

        all_codes = EntropyStage.decode(sections["codes"])
        reconstruction = np.zeros(size, dtype=np.float64)

        if all_codes.size == 0:
            raise CorruptPayloadError("sz3 payload holds no quantization codes")
        reconstruction[0] = all_codes[0] * bin_width
        cursor = 1

        for stride in _interpolation_strides(size):
            targets = np.arange(stride, size, 2 * stride)
            if targets.size == 0:
                continue
            level_codes = all_codes[cursor : cursor + targets.size]
            if level_codes.size != targets.size:
                raise CorruptPayloadError("sz3 payload truncated: missing level codes")
            cursor += targets.size
            predictions = _predict(reconstruction, targets, stride, size, use_cubic)
            reconstruction[targets] = Quantizer.decode(level_codes, predictions, ctx)

        return reconstruction


class SZ3Compressor(StagedCompressor):
    """Multi-level interpolation predictor compressor (SZ3 analogue)."""

    name = "sz3"

    def __init__(
        self,
        entropy_backend: EntropyBackend = "deflate",
        compression_level: int = 6,
        use_cubic: bool = True,
    ) -> None:
        self.entropy_backend = entropy_backend
        self.compression_level = int(compression_level)
        self.use_cubic = bool(use_cubic)

    def _predictor(self) -> SZ3Predictor:
        return SZ3Predictor(
            self.use_cubic, EntropyStage(self.entropy_backend, self.compression_level)
        )


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


def _predict(
    reconstruction: np.ndarray,
    targets: np.ndarray,
    stride: int,
    size: int,
    use_cubic: bool,
) -> np.ndarray:
    """Interpolate target points from already-reconstructed neighbours.

    Left neighbours at ``target - stride`` always exist (they belong to a
    coarser level).  Right neighbours at ``target + stride`` exist unless the
    target sits near the end of the array; in that case previous-value
    prediction is used, matching SZ3's boundary fallback.
    """
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
