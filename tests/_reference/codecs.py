"""Frozen pre-refactor EBLC codec implementations (equivalence references).

These are verbatim copies of the monolithic SZ2/SZ3/SZx/ZFP compressors as
they existed before the stage-based refactor (see
:mod:`repro.compression.stages`).  They exist for one purpose only: the
golden corpus (``tests/golden/test_golden.py``) pins the staged codecs'
*decompressed outputs* at the real slab bit-identically against these
references, per case of its table.

Do not extend or optimise this module; new codec work belongs in the stage
pipeline.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Tuple

import numpy as np

from repro.compression.base import (
    ErrorBoundMode,
    LossyCompressor,
    pack_array,
    pack_sections,
    resolve_error_bound,
    unpack_array,
    unpack_sections,
)
from repro.compression.bitstream import pack_bit_flags, unpack_bit_flags
from repro.compression.entropy import decode_indices, encode_indices
from repro.compression.errors import CorruptPayloadError, InvalidErrorBoundError


# ----------------------------------------------------------------------
# Reference SZ2 (frozen copy of repro.compression.sz2)
# ----------------------------------------------------------------------

_SZ2_META_STRUCT = struct.Struct("<IQdddII")
_SZ2_FORMAT_VERSION = 2

_SZ2_MODE_LORENZO = 0
_SZ2_MODE_REGRESSION = 1


class ReferenceSZ2Compressor(LossyCompressor):
    """Blockwise hybrid Lorenzo/regression compressor (SZ2 analogue)."""

    name = "sz2"

    def __init__(
        self,
        block_size: int = 256,
        compression_level: int = 6,
    ) -> None:
        if block_size < 4:
            raise ValueError(f"block_size must be >= 4, got {block_size}")
        self.block_size = int(block_size)
        self.compression_level = int(compression_level)

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def compress(
        self,
        data: np.ndarray,
        error_bound: float,
        mode: ErrorBoundMode = ErrorBoundMode.REL,
    ) -> bytes:
        data = self._validate_input(data)
        original_shape = data.shape
        original_dtype = data.dtype
        flat = data.astype(np.float64, copy=False).ravel()
        absolute_bound = resolve_error_bound(flat, error_bound, mode)

        if flat.size == 0 or absolute_bound <= 0:
            # Constant or empty data: fall back to storing the raw values.
            sections = {
                "meta": self._pack_meta(flat.size, absolute_bound, 0.0, original_shape, original_dtype, raw=True),
                "raw": pack_array(data),
            }
            return pack_sections(sections)

        # Anchor the quantization grid at zero: model weights are centred on
        # zero, so this keeps the quantization error itself zero-mean and makes
        # the error distribution mirror the (heavy-tailed) weight distribution,
        # which is the behaviour Section VII-D analyses.
        offset = 0.0
        bin_width = 2.0 * absolute_bound
        block = self.block_size
        padded, num_blocks = _SZ2_pad_to_blocks(flat, block)
        blocks = padded.reshape(num_blocks, block)

        # --- Lorenzo candidate -------------------------------------------------
        quantized = np.rint((blocks - offset) / bin_width).astype(np.int64)
        lorenzo_codes = np.empty_like(quantized)
        lorenzo_codes[:, 0] = quantized[:, 0]
        lorenzo_codes[:, 1:] = np.diff(quantized, axis=1)

        # --- Regression candidate ----------------------------------------------
        positions = np.arange(block, dtype=np.float64)
        position_mean = positions.mean()
        position_var = float(np.sum((positions - position_mean) ** 2))
        block_means = blocks.mean(axis=1)
        slopes = ((blocks - block_means[:, None]) @ (positions - position_mean)) / position_var
        intercepts = block_means - slopes * position_mean
        # Coefficients are stored as float32; predict with the stored precision
        # so that compression and decompression agree exactly.
        slopes32 = slopes.astype(np.float32)
        intercepts32 = intercepts.astype(np.float32)
        predictions = (
            intercepts32.astype(np.float64)[:, None]
            + slopes32.astype(np.float64)[:, None] * positions[None, :]
        )
        regression_codes = np.rint((blocks - predictions) / bin_width).astype(np.int64)

        # --- Per-block mode selection ------------------------------------------
        lorenzo_cost = _SZ2_estimate_block_bits(lorenzo_codes)
        regression_cost = _SZ2_estimate_block_bits(regression_codes) + 64.0  # two float32 coefficients
        use_regression = regression_cost < lorenzo_cost

        codes = np.where(use_regression[:, None], regression_codes, lorenzo_codes)
        coefficients = np.stack(
            [intercepts32[use_regression], slopes32[use_regression]], axis=1
        ).astype(np.float32)

        sections = {
            "meta": self._pack_meta(flat.size, absolute_bound, offset, original_shape, original_dtype, raw=False),
            "modes": pack_bit_flags(use_regression),
            "coef": pack_array(coefficients),
            "codes": encode_indices(codes.ravel(), self.compression_level),
        }
        return pack_sections(sections)

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------
    def decompress(self, payload: bytes) -> np.ndarray:
        sections = unpack_sections(payload)
        meta = self._unpack_meta(sections.get("meta"))
        if meta["raw"]:
            return unpack_array(sections["raw"])

        size = meta["size"]
        absolute_bound = meta["absolute_bound"]
        offset = meta["offset"]
        bin_width = 2.0 * absolute_bound
        block = meta["block_size"]
        num_blocks = -(-size // block) if size else 0

        codes = decode_indices(sections["codes"]).reshape(num_blocks, block)
        use_regression = unpack_bit_flags(sections["modes"], num_blocks)
        coefficients = unpack_array(sections["coef"]).reshape(-1, 2)

        reconstruction = np.empty((num_blocks, block), dtype=np.float64)

        lorenzo_mask = ~use_regression
        if np.any(lorenzo_mask):
            quantized = np.cumsum(codes[lorenzo_mask], axis=1)
            reconstruction[lorenzo_mask] = offset + quantized * bin_width

        if np.any(use_regression):
            positions = np.arange(block, dtype=np.float64)
            intercepts = coefficients[:, 0].astype(np.float64)
            slopes = coefficients[:, 1].astype(np.float64)
            predictions = intercepts[:, None] + slopes[:, None] * positions[None, :]
            reconstruction[use_regression] = predictions + codes[use_regression] * bin_width

        flat = reconstruction.ravel()[:size]
        return flat.astype(meta["dtype"]).reshape(meta["shape"])

    # ------------------------------------------------------------------
    # Metadata framing
    # ------------------------------------------------------------------
    def _pack_meta(
        self,
        size: int,
        absolute_bound: float,
        offset: float,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        raw: bool,
    ) -> bytes:
        dtype_name = np.dtype(dtype).str.encode("ascii")
        header = _SZ2_META_STRUCT.pack(
            _SZ2_FORMAT_VERSION,
            size,
            float(absolute_bound),
            float(offset),
            0.0,
            self.block_size,
            1 if raw else 0,
        )
        shape_blob = struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}q", *shape)
        return header + struct.pack("<H", len(dtype_name)) + dtype_name + shape_blob

    @staticmethod
    def _unpack_meta(blob: bytes | None) -> dict:
        if not blob or len(blob) < _SZ2_META_STRUCT.size:
            raise CorruptPayloadError("SZ2 payload missing metadata section")
        version, size, absolute_bound, offset, _, block_size, raw = _SZ2_META_STRUCT.unpack_from(blob, 0)
        if version != _SZ2_FORMAT_VERSION:
            raise CorruptPayloadError(f"unsupported SZ2 payload version {version}")
        cursor = _SZ2_META_STRUCT.size
        (dtype_len,) = struct.unpack_from("<H", blob, cursor)
        cursor += 2
        dtype = np.dtype(blob[cursor : cursor + dtype_len].decode("ascii"))
        cursor += dtype_len
        (ndim,) = struct.unpack_from("<B", blob, cursor)
        cursor += 1
        shape = struct.unpack_from(f"<{ndim}q", blob, cursor) if ndim else ()
        return {
            "size": int(size),
            "absolute_bound": float(absolute_bound),
            "offset": float(offset),
            "block_size": int(block_size),
            "raw": bool(raw),
            "dtype": dtype,
            "shape": tuple(int(s) for s in shape),
        }


def _SZ2_pad_to_blocks(flat: np.ndarray, block: int) -> Tuple[np.ndarray, int]:
    """Pad a 1-D array with its last value up to a whole number of blocks."""
    num_blocks = -(-flat.size // block)
    padded_size = num_blocks * block
    if padded_size == flat.size:
        return flat, num_blocks
    padded = np.empty(padded_size, dtype=np.float64)
    padded[: flat.size] = flat
    padded[flat.size :] = flat[-1]
    return padded, num_blocks


def _SZ2_estimate_block_bits(codes: np.ndarray) -> np.ndarray:
    """Rough per-block coding cost in bits used for mode selection.

    The cost model assumes roughly ``log2(2|c| + 1) + 1`` bits per residual,
    which tracks the behaviour of the downstream entropy coder closely enough
    to pick the better predictor without actually running it per block.
    """
    magnitudes = np.abs(codes).astype(np.float64)
    return np.sum(np.log2(2.0 * magnitudes + 1.0) + 1.0, axis=1)



# ----------------------------------------------------------------------
# Reference SZ3 (frozen copy of repro.compression.sz3)
# ----------------------------------------------------------------------

_SZ3_META_STRUCT = struct.Struct("<IQddI")
_SZ3_FORMAT_VERSION = 2

#: Classic 4-point cubic interpolation weights used by SZ3's spline predictor.
_SZ3_CUBIC_WEIGHTS = (-1.0 / 16.0, 9.0 / 16.0, 9.0 / 16.0, -1.0 / 16.0)


class ReferenceSZ3Compressor(LossyCompressor):
    """Multi-level interpolation predictor compressor (SZ3 analogue)."""

    name = "sz3"

    def __init__(
        self,
        compression_level: int = 6,
        use_cubic: bool = True,
    ) -> None:
        self.compression_level = int(compression_level)
        self.use_cubic = bool(use_cubic)

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def compress(
        self,
        data: np.ndarray,
        error_bound: float,
        mode: ErrorBoundMode = ErrorBoundMode.REL,
    ) -> bytes:
        data = self._validate_input(data)
        original_shape = data.shape
        original_dtype = data.dtype
        flat = data.astype(np.float64, copy=False).ravel()
        absolute_bound = resolve_error_bound(flat, error_bound, mode)

        if flat.size == 0 or absolute_bound <= 0:
            sections = {
                "meta": self._pack_meta(flat.size, absolute_bound, original_shape, original_dtype, raw=True),
                "raw": pack_array(data),
            }
            return pack_sections(sections)

        bin_width = 2.0 * absolute_bound
        reconstruction = np.zeros_like(flat)
        codes: List[np.ndarray] = []

        # Anchor point: the first element is quantized against zero.
        anchor_index = np.rint(flat[0] / bin_width).astype(np.int64)
        reconstruction[0] = anchor_index * bin_width
        codes.append(np.atleast_1d(anchor_index))

        for stride in _SZ3_interpolation_strides(flat.size):
            targets = np.arange(stride, flat.size, 2 * stride)
            if targets.size == 0:
                continue
            predictions = _SZ3_predict(reconstruction, targets, stride, flat.size, self.use_cubic)
            level_codes = np.rint((flat[targets] - predictions) / bin_width).astype(np.int64)
            reconstruction[targets] = predictions + level_codes * bin_width
            codes.append(level_codes)

        all_codes = np.concatenate(codes)
        sections = {
            "meta": self._pack_meta(flat.size, absolute_bound, original_shape, original_dtype, raw=False),
            "codes": encode_indices(all_codes, self.compression_level),
        }
        return pack_sections(sections)

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------
    def decompress(self, payload: bytes) -> np.ndarray:
        sections = unpack_sections(payload)
        meta = self._unpack_meta(sections.get("meta"))
        if meta["raw"]:
            return unpack_array(sections["raw"])

        size = meta["size"]
        absolute_bound = meta["absolute_bound"]
        bin_width = 2.0 * absolute_bound
        use_cubic = meta["use_cubic"]

        all_codes = decode_indices(sections["codes"])
        reconstruction = np.zeros(size, dtype=np.float64)
        cursor = 0

        if all_codes.size == 0:
            raise CorruptPayloadError("SZ3 payload holds no quantization codes")
        reconstruction[0] = all_codes[0] * bin_width
        cursor = 1

        for stride in _SZ3_interpolation_strides(size):
            targets = np.arange(stride, size, 2 * stride)
            if targets.size == 0:
                continue
            level_codes = all_codes[cursor : cursor + targets.size]
            if level_codes.size != targets.size:
                raise CorruptPayloadError("SZ3 payload truncated: missing level codes")
            cursor += targets.size
            predictions = _SZ3_predict(reconstruction, targets, stride, size, use_cubic)
            reconstruction[targets] = predictions + level_codes * bin_width

        return reconstruction.astype(meta["dtype"]).reshape(meta["shape"])

    # ------------------------------------------------------------------
    # Metadata framing
    # ------------------------------------------------------------------
    def _pack_meta(
        self,
        size: int,
        absolute_bound: float,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        raw: bool,
    ) -> bytes:
        flags = (1 if raw else 0) | ((1 if self.use_cubic else 0) << 1)
        dtype_name = np.dtype(dtype).str.encode("ascii")
        header = _SZ3_META_STRUCT.pack(_SZ3_FORMAT_VERSION, size, float(absolute_bound), 0.0, flags)
        shape_blob = struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}q", *shape)
        return header + struct.pack("<H", len(dtype_name)) + dtype_name + shape_blob

    @staticmethod
    def _unpack_meta(blob: bytes | None) -> dict:
        if not blob or len(blob) < _SZ3_META_STRUCT.size:
            raise CorruptPayloadError("SZ3 payload missing metadata section")
        version, size, absolute_bound, _, flags = _SZ3_META_STRUCT.unpack_from(blob, 0)
        if version != _SZ3_FORMAT_VERSION:
            raise CorruptPayloadError(f"unsupported SZ3 payload version {version}")
        cursor = _SZ3_META_STRUCT.size
        (dtype_len,) = struct.unpack_from("<H", blob, cursor)
        cursor += 2
        dtype = np.dtype(blob[cursor : cursor + dtype_len].decode("ascii"))
        cursor += dtype_len
        (ndim,) = struct.unpack_from("<B", blob, cursor)
        cursor += 1
        shape = struct.unpack_from(f"<{ndim}q", blob, cursor) if ndim else ()
        return {
            "size": int(size),
            "absolute_bound": float(absolute_bound),
            "raw": bool(flags & 1),
            "use_cubic": bool(flags & 2),
            "dtype": dtype,
            "shape": tuple(int(s) for s in shape),
        }


def _SZ3_interpolation_strides(size: int) -> List[int]:
    """Strides processed from coarsest to finest for an array of ``size``."""
    if size <= 1:
        return []
    strides: List[int] = []
    stride = 1
    while stride < size:
        strides.append(stride)
        stride *= 2
    return list(reversed(strides))


def _SZ3_predict(
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
            w0, w1, w2, w3 = _SZ3_CUBIC_WEIGHTS
            cubic = (
                w0 * reconstruction[np.maximum(far_left_index, 0)]
                + w1 * left
                + w2 * right
                + w3 * reconstruction[np.minimum(far_right_index, size - 1)]
            )
            predictions = np.where(has_cubic, cubic, predictions)
    return predictions



# ----------------------------------------------------------------------
# Reference SZx (frozen copy of repro.compression.szx)
# ----------------------------------------------------------------------

_SZX_META_STRUCT = struct.Struct("<IQdII")
_SZX_FORMAT_VERSION = 2


class ReferenceSZxCompressor(LossyCompressor):
    """Constant-block + bit-truncation compressor (SZx analogue)."""

    name = "szx"

    def __init__(self, block_size: int = 128) -> None:
        if block_size < 4:
            raise ValueError(f"block_size must be >= 4, got {block_size}")
        self.block_size = int(block_size)

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def compress(
        self,
        data: np.ndarray,
        error_bound: float,
        mode: ErrorBoundMode = ErrorBoundMode.REL,
    ) -> bytes:
        data = self._validate_input(data)
        original_shape = data.shape
        original_dtype = data.dtype
        flat = data.astype(np.float64, copy=False).ravel()
        absolute_bound = resolve_error_bound(flat, error_bound, mode)

        if flat.size == 0 or absolute_bound <= 0:
            sections = {
                "meta": self._pack_meta(flat.size, absolute_bound, original_shape, original_dtype, raw=True),
                "raw": pack_array(data),
            }
            return pack_sections(sections)

        block = self.block_size
        padded, num_blocks = _SZX_pad_to_blocks(flat, block)
        blocks = padded.reshape(num_blocks, block)

        # Block means are stored as float32, so compute constancy against the
        # value that will actually be reconstructed.
        means = blocks.mean(axis=1).astype(np.float32).astype(np.float64)
        deviations = blocks - means[:, None]
        is_constant = np.max(np.abs(deviations), axis=1) <= absolute_bound

        # Non-constant blocks: truncate |x - mean| / ε toward zero, keep a sign
        # bit and a per-block fixed bit width.
        magnitudes = np.floor(np.abs(deviations) / absolute_bound).astype(np.uint64)
        signs = (deviations < 0).astype(np.uint8)
        block_max = magnitudes.max(axis=1)
        widths = np.zeros(num_blocks, dtype=np.uint8)
        nonconstant = ~is_constant
        if np.any(nonconstant):
            widths[nonconstant] = np.maximum(
                1, np.ceil(np.log2(block_max[nonconstant].astype(np.float64) + 1.0)).astype(np.uint8)
            )

        # Blocks are stored grouped by bit width (ascending) so that each group
        # can be packed and unpacked with a single vectorised operation instead
        # of a per-block Python loop.  The decompressor reconstructs the same
        # grouping from the ``widths`` array.
        payload_parts = []
        for width in np.unique(widths[nonconstant]):
            group = nonconstant & (widths == width)
            packed = _SZX_pack_group_values(magnitudes[group], signs[group], int(width))
            payload_parts.append(packed)
        values_blob = b"".join(payload_parts)

        sections = {
            "meta": self._pack_meta(flat.size, absolute_bound, original_shape, original_dtype, raw=False),
            "flags": pack_bit_flags(is_constant),
            "means": pack_array(means.astype(np.float32)),
            "widths": pack_array(widths),
            "values": values_blob,
        }
        return pack_sections(sections)

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------
    def decompress(self, payload: bytes) -> np.ndarray:
        sections = unpack_sections(payload)
        meta = self._unpack_meta(sections.get("meta"))
        if meta["raw"]:
            return unpack_array(sections["raw"])

        size = meta["size"]
        absolute_bound = meta["absolute_bound"]
        block = meta["block_size"]
        num_blocks = -(-size // block)

        is_constant = unpack_bit_flags(sections["flags"], num_blocks)
        means = unpack_array(sections["means"]).astype(np.float64)
        widths = unpack_array(sections["widths"]).astype(np.int64)
        values_blob = sections["values"]

        reconstruction = np.repeat(means[:, None], block, axis=1)

        cursor = 0
        nonconstant = ~is_constant
        for width in np.unique(widths[nonconstant]):
            group = nonconstant & (widths == width)
            group_count = int(np.count_nonzero(group))
            nbytes = _SZX_packed_group_nbytes(group_count, block, int(width))
            chunk = values_blob[cursor : cursor + nbytes]
            if len(chunk) != nbytes:
                raise CorruptPayloadError("SZx payload truncated inside value blocks")
            cursor += nbytes
            magnitudes, signs = _SZX_unpack_group_values(chunk, group_count, block, int(width))
            deviations = magnitudes.astype(np.float64) * absolute_bound
            deviations[signs.astype(bool)] *= -1.0
            reconstruction[group] = means[group, None] + deviations

        flat = reconstruction.ravel()[:size]
        return flat.astype(meta["dtype"]).reshape(meta["shape"])

    # ------------------------------------------------------------------
    # Metadata framing
    # ------------------------------------------------------------------
    def _pack_meta(
        self,
        size: int,
        absolute_bound: float,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        raw: bool,
    ) -> bytes:
        dtype_name = np.dtype(dtype).str.encode("ascii")
        header = _SZX_META_STRUCT.pack(
            _SZX_FORMAT_VERSION, size, float(absolute_bound), self.block_size, 1 if raw else 0
        )
        shape_blob = struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}q", *shape)
        return header + struct.pack("<H", len(dtype_name)) + dtype_name + shape_blob

    @staticmethod
    def _unpack_meta(blob: bytes | None) -> dict:
        if not blob or len(blob) < _SZX_META_STRUCT.size:
            raise CorruptPayloadError("SZx payload missing metadata section")
        version, size, absolute_bound, block_size, raw = _SZX_META_STRUCT.unpack_from(blob, 0)
        if version != _SZX_FORMAT_VERSION:
            raise CorruptPayloadError(f"unsupported SZx payload version {version}")
        cursor = _SZX_META_STRUCT.size
        (dtype_len,) = struct.unpack_from("<H", blob, cursor)
        cursor += 2
        dtype = np.dtype(blob[cursor : cursor + dtype_len].decode("ascii"))
        cursor += dtype_len
        (ndim,) = struct.unpack_from("<B", blob, cursor)
        cursor += 1
        shape = struct.unpack_from(f"<{ndim}q", blob, cursor) if ndim else ()
        return {
            "size": int(size),
            "absolute_bound": float(absolute_bound),
            "block_size": int(block_size),
            "raw": bool(raw),
            "dtype": dtype,
            "shape": tuple(int(s) for s in shape),
        }


def _SZX_pad_to_blocks(flat: np.ndarray, block: int) -> Tuple[np.ndarray, int]:
    """Pad a 1-D array with its last value up to a whole number of blocks."""
    num_blocks = -(-flat.size // block)
    padded_size = num_blocks * block
    if padded_size == flat.size:
        return flat, num_blocks
    padded = np.empty(padded_size, dtype=np.float64)
    padded[: flat.size] = flat
    padded[flat.size :] = flat[-1]
    return padded, num_blocks


def _SZX_packed_group_nbytes(group_count: int, block: int, width: int) -> int:
    """Bytes used to store a group of non-constant blocks at the same width."""
    total_bits = group_count * block * (width + 1)
    return (total_bits + 7) // 8


def _SZX_pack_group_values(magnitudes: np.ndarray, signs: np.ndarray, width: int) -> bytes:
    """Bit-pack sign + fixed-width magnitude for a group of blocks."""
    group_count, block = magnitudes.shape
    bits = np.zeros((group_count, block, width + 1), dtype=np.uint8)
    bits[:, :, 0] = signs
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits[:, :, 1:] = (
        (magnitudes[:, :, None] >> shifts[None, None, :]) & np.uint64(1)
    ).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def _SZX_unpack_group_values(
    chunk: bytes, group_count: int, block: int, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_SZX_pack_group_values`."""
    total_bits = group_count * block * (width + 1)
    bits = np.unpackbits(np.frombuffer(chunk, dtype=np.uint8))[:total_bits]
    bits = bits.reshape(group_count, block, width + 1)
    signs = bits[:, :, 0]
    weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64))
    magnitudes = bits[:, :, 1:].astype(np.uint64) @ weights
    return magnitudes, signs



# ----------------------------------------------------------------------
# Reference ZFP (frozen copy of repro.compression.zfp)
# ----------------------------------------------------------------------

_ZFP_META_STRUCT = struct.Struct("<IQIII")
_ZFP_FORMAT_VERSION = 2
_ZFP_BLOCK = 4

#: Orthonormal 4-point DCT-II matrix (rows are basis vectors).
_ZFP_DCT_MATRIX = np.array(
    [
        [0.5, 0.5, 0.5, 0.5],
        [0.6532814824381883, 0.27059805007309845, -0.27059805007309845, -0.6532814824381883],
        [0.5, -0.5, -0.5, 0.5],
        [0.27059805007309845, -0.6532814824381883, 0.6532814824381883, -0.27059805007309845],
    ],
    dtype=np.float64,
)


def _ZFPprecision_for_relative_bound(relative_bound: float) -> int:
    """Map a relative error bound onto a fixed coefficient precision.

    ``precision = ceil(log2(1 / rel)) + 1`` clamped to [2, 30], mirroring how
    the paper picks ZFP's fixed-precision mode as "the closest analogous
    option" to a relative bound.
    """
    if relative_bound <= 0 or not np.isfinite(relative_bound):
        raise InvalidErrorBoundError(
            f"relative bound must be positive and finite, got {relative_bound}"
        )
    precision = int(np.ceil(np.log2(1.0 / relative_bound))) + 1
    return int(np.clip(precision, 2, 30))


class ReferenceZFPCompressor(LossyCompressor):
    """Block transform + fixed-precision coefficient coding (ZFP analogue)."""

    name = "zfp"

    def __init__(self, compression_level: int = 6) -> None:
        self.compression_level = int(compression_level)

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def compress(
        self,
        data: np.ndarray,
        error_bound: float,
        mode: ErrorBoundMode = ErrorBoundMode.REL,
    ) -> bytes:
        data = self._validate_input(data)
        original_shape = data.shape
        original_dtype = data.dtype
        flat = data.astype(np.float64, copy=False).ravel()

        if mode == ErrorBoundMode.REL:
            precision = _ZFPprecision_for_relative_bound(error_bound)
        else:
            # Absolute bounds are translated against the data range so that a
            # tighter bound still yields more retained bits.
            finite_range = float(flat.max() - flat.min()) if flat.size else 1.0
            relative = error_bound / finite_range if finite_range > 0 else error_bound
            precision = _ZFPprecision_for_relative_bound(max(relative, 1e-9))

        if flat.size == 0:
            sections = {
                "meta": self._pack_meta(flat.size, precision, original_shape, original_dtype, raw=True),
                "raw": pack_array(data),
            }
            return pack_sections(sections)

        padded, num_blocks = _ZFP_pad_to_blocks(flat, _ZFP_BLOCK)
        blocks = padded.reshape(num_blocks, _ZFP_BLOCK)

        # Block-floating-point: express every value as mantissa * 2^emax where
        # emax is the block's largest exponent.
        max_magnitude = np.max(np.abs(blocks), axis=1)
        emax = np.zeros(num_blocks, dtype=np.int32)
        nonzero = max_magnitude > 0
        emax[nonzero] = np.ceil(np.log2(max_magnitude[nonzero])).astype(np.int32)
        scale = np.ldexp(1.0, -emax).astype(np.float64)
        normalized = blocks * scale[:, None]  # values in [-1, 1]

        coefficients = normalized @ _ZFP_DCT_MATRIX.T  # orthonormal, stays within [-2, 2]

        # Sign-magnitude fixed-precision quantization of coefficients.
        quantization_scale = float(1 << (precision - 1))
        quantized = np.rint(coefficients * quantization_scale).astype(np.int64)
        limit = (1 << (precision + 1)) - 1
        quantized = np.clip(quantized, -limit, limit)
        signs = (quantized < 0).astype(np.uint8)
        magnitudes = np.abs(quantized).astype(np.uint64)

        width = precision + 2  # sign-free magnitude can reach 2 * 2^(precision-1)
        bits = np.zeros((num_blocks, _ZFP_BLOCK, width + 1), dtype=np.uint8)
        bits[:, :, 0] = signs
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits[:, :, 1:] = (
            (magnitudes[:, :, None] >> shifts[None, None, :]) & np.uint64(1)
        ).astype(np.uint8)
        coefficient_blob = np.packbits(bits.ravel()).tobytes()

        sections = {
            "meta": self._pack_meta(flat.size, precision, original_shape, original_dtype, raw=False),
            "emax": zlib.compress(emax.astype("<i2").tobytes(), self.compression_level),
            "coef": zlib.compress(coefficient_blob, self.compression_level),
        }
        return pack_sections(sections)

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------
    def decompress(self, payload: bytes) -> np.ndarray:
        sections = unpack_sections(payload)
        meta = self._unpack_meta(sections.get("meta"))
        if meta["raw"]:
            return unpack_array(sections["raw"])

        size = meta["size"]
        precision = meta["precision"]
        num_blocks = -(-size // _ZFP_BLOCK)
        width = precision + 2

        emax = np.frombuffer(zlib.decompress(sections["emax"]), dtype="<i2").astype(np.int32)
        if emax.size != num_blocks:
            raise CorruptPayloadError("ZFP payload exponent count mismatch")

        coefficient_blob = zlib.decompress(sections["coef"])
        total_bits = num_blocks * _ZFP_BLOCK * (width + 1)
        bits = np.unpackbits(np.frombuffer(coefficient_blob, dtype=np.uint8))[:total_bits]
        bits = bits.reshape(num_blocks, _ZFP_BLOCK, width + 1)
        signs = bits[:, :, 0].astype(bool)
        weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64))
        magnitudes = (bits[:, :, 1:].astype(np.uint64) @ weights).astype(np.float64)
        quantized = np.where(signs, -magnitudes, magnitudes)

        quantization_scale = float(1 << (precision - 1))
        coefficients = quantized / quantization_scale
        normalized = coefficients @ _ZFP_DCT_MATRIX  # inverse of an orthonormal transform
        scale = np.ldexp(1.0, emax).astype(np.float64)
        blocks = normalized * scale[:, None]

        flat = blocks.ravel()[:size]
        return flat.astype(meta["dtype"]).reshape(meta["shape"])

    # ------------------------------------------------------------------
    # Metadata framing
    # ------------------------------------------------------------------
    def _pack_meta(
        self,
        size: int,
        precision: int,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        raw: bool,
    ) -> bytes:
        dtype_name = np.dtype(dtype).str.encode("ascii")
        header = _ZFP_META_STRUCT.pack(_ZFP_FORMAT_VERSION, size, precision, _ZFP_BLOCK, 1 if raw else 0)
        shape_blob = struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}q", *shape)
        return header + struct.pack("<H", len(dtype_name)) + dtype_name + shape_blob

    @staticmethod
    def _unpack_meta(blob: bytes | None) -> dict:
        if not blob or len(blob) < _ZFP_META_STRUCT.size:
            raise CorruptPayloadError("ZFP payload missing metadata section")
        version, size, precision, block, raw = _ZFP_META_STRUCT.unpack_from(blob, 0)
        if version != _ZFP_FORMAT_VERSION:
            raise CorruptPayloadError(f"unsupported ZFP payload version {version}")
        if block != _ZFP_BLOCK:
            raise CorruptPayloadError(f"unexpected ZFP block size {block}")
        cursor = _ZFP_META_STRUCT.size
        (dtype_len,) = struct.unpack_from("<H", blob, cursor)
        cursor += 2
        dtype = np.dtype(blob[cursor : cursor + dtype_len].decode("ascii"))
        cursor += dtype_len
        (ndim,) = struct.unpack_from("<B", blob, cursor)
        cursor += 1
        shape = struct.unpack_from(f"<{ndim}q", blob, cursor) if ndim else ()
        return {
            "size": int(size),
            "precision": int(precision),
            "raw": bool(raw),
            "dtype": dtype,
            "shape": tuple(int(s) for s in shape),
        }


def _ZFP_pad_to_blocks(flat: np.ndarray, block: int) -> Tuple[np.ndarray, int]:
    """Pad a 1-D array with zeros up to a whole number of blocks."""
    num_blocks = -(-flat.size // block)
    padded_size = num_blocks * block
    if padded_size == flat.size:
        return flat, num_blocks
    padded = np.zeros(padded_size, dtype=np.float64)
    padded[: flat.size] = flat
    return padded, num_blocks


