"""Error-bounded lossy and lossless compression substrate.

This package re-implements, from scratch and in pure numpy, the compressor
suite the FedSZ paper builds on:

* :class:`SZ2Compressor` — blockwise hybrid Lorenzo/regression prediction,
  error-bounded quantization and an entropy stage (SZ2 analogue, the
  compressor FedSZ ultimately selects).
* :class:`SZ3Compressor` — multi-level spline-interpolation prediction
  (SZ3 analogue).
* :class:`SZxCompressor` — constant-block detection plus bit truncation
  (SZx analogue, built for speed).
* :class:`ZFPCompressor` — block transform with fixed-precision coefficient
  coding (ZFP analogue).
* Lossless codecs: blosc-lz and zstd stand-ins plus genuine gzip/zlib/xz.

All lossy codecs honour the same error-bound contract used throughout the
paper: with a relative bound ε, every reconstructed value deviates from the
original by at most ε·(max−min) (ZFP, faithful to the original tool, maps the
bound onto a fixed precision instead of guaranteeing it).
"""

from repro.compression.base import (
    CompressionStats,
    ErrorBoundMode,
    LosslessCompressor,
    LossyCompressor,
    resolve_error_bound,
    safe_throughput_mbps,
    validate_lossy_input,
)
from repro.compression.entropy import decode_indices, encode_indices
from repro.compression.errors import (
    CompressionError,
    CorruptPayloadError,
    InvalidErrorBoundError,
    UnknownCompressorError,
    UnsupportedDataError,
)
from repro.compression.lossless import (
    BloscLZCompressor,
    GzipCompressor,
    XzCompressor,
    ZlibCompressor,
    ZstdCompressor,
)
from repro.compression.metrics import (
    LosslessEvaluation,
    LossyEvaluation,
    compression_ratio,
    evaluate_lossless,
    evaluate_lossy,
    max_abs_error,
    mean_squared_error,
    psnr,
)
from repro.compression.quantizer import (
    dequantize_residuals,
    quantize_residuals,
    verify_error_bound,
)
from repro.compression.registry import (
    available_lossless_compressors,
    available_lossy_compressors,
    get_lossless_compressor,
    get_lossy_compressor,
    register_lossless,
    register_lossy,
    register_predictor,
)
from repro.compression.stages import (
    EntropyStage,
    PredictorStage,
    Quantizer,
    StageContext,
    StagedCompressor,
)
from repro.compression.sz2 import SZ2Compressor
from repro.compression.sz3 import SZ3Compressor
from repro.compression.szx import SZxCompressor
from repro.compression.zfp import ZFPCompressor, precision_for_relative_bound

__all__ = [
    "CompressionStats",
    "ErrorBoundMode",
    "LosslessCompressor",
    "LossyCompressor",
    "resolve_error_bound",
    "safe_throughput_mbps",
    "validate_lossy_input",
    "EntropyStage",
    "PredictorStage",
    "Quantizer",
    "StageContext",
    "StagedCompressor",
    "encode_indices",
    "decode_indices",
    "CompressionError",
    "CorruptPayloadError",
    "InvalidErrorBoundError",
    "UnknownCompressorError",
    "UnsupportedDataError",
    "BloscLZCompressor",
    "GzipCompressor",
    "XzCompressor",
    "ZlibCompressor",
    "ZstdCompressor",
    "LossyEvaluation",
    "LosslessEvaluation",
    "compression_ratio",
    "evaluate_lossy",
    "evaluate_lossless",
    "max_abs_error",
    "mean_squared_error",
    "psnr",
    "quantize_residuals",
    "dequantize_residuals",
    "verify_error_bound",
    "available_lossy_compressors",
    "available_lossless_compressors",
    "get_lossy_compressor",
    "get_lossless_compressor",
    "register_lossy",
    "register_lossless",
    "register_predictor",
    "SZ2Compressor",
    "SZ3Compressor",
    "SZxCompressor",
    "ZFPCompressor",
    "precision_for_relative_bound",
]
