"""FedSZ core: the paper's primary contribution.

* :class:`FedSZCompressor` — the public codec: partition a model state dict
  (Algorithm 1), lossy-compress the large weight tensors, lossless-compress
  the metadata, serialize to one bitstream, and invert all of it server-side.
* :func:`compress_state_dict` / :func:`decompress_state_dict` — the
  functional pipeline underneath.
* Problem 1 / Problem 2 selection utilities (Section IV).
"""

from repro.core.adaptive import (
    AdaptiveErrorBoundController,
    AdaptiveFedSZCompressor,
    BoundAdjustment,
)
from repro.core.config import (
    DEFAULT_PARTITION_THRESHOLD,
    RECOMMENDED_ERROR_BOUND,
    FedSZConfig,
)
from repro.core.fedsz import FedSZCompressor, IdentityCodec
from repro.core.partition import StateDictPartition, is_lossy_eligible, partition_state_dict
from repro.core.pipeline import (
    FedSZReport,
    compress_state_dict,
    decompress_state_dict,
)
from repro.core.selection import (
    CompressorCandidate,
    CompressorSelection,
    ErrorBoundCandidate,
    ErrorBoundSelection,
    select_error_bound,
    select_lossy_compressor,
)
from repro.core.serializer import deserialize_named_arrays, serialize_named_arrays

__all__ = [
    "AdaptiveErrorBoundController",
    "AdaptiveFedSZCompressor",
    "BoundAdjustment",
    "DEFAULT_PARTITION_THRESHOLD",
    "RECOMMENDED_ERROR_BOUND",
    "FedSZConfig",
    "FedSZCompressor",
    "IdentityCodec",
    "StateDictPartition",
    "is_lossy_eligible",
    "partition_state_dict",
    "FedSZReport",
    "compress_state_dict",
    "decompress_state_dict",
    "CompressorCandidate",
    "CompressorSelection",
    "ErrorBoundCandidate",
    "ErrorBoundSelection",
    "select_error_bound",
    "select_lossy_compressor",
    "serialize_named_arrays",
    "deserialize_named_arrays",
]
