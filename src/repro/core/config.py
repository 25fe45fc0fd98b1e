"""Configuration for the FedSZ compression pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.compression.base import ErrorBoundMode
from repro.compression.registry import (
    available_lossless_compressors,
    available_lossy_compressors,
)
from repro.utils.validation import require_count

#: Relative error bound the paper recommends as the accuracy/ratio sweet spot.
RECOMMENDED_ERROR_BOUND = 1e-2

#: Minimum flattened size for a tensor to take the lossy path (Algorithm 1's
#: ``threshold``); small weight tensors are not worth the codec overhead.
DEFAULT_PARTITION_THRESHOLD = 1024


@dataclass(frozen=True)
class FedSZConfig:
    """All knobs of the FedSZ pipeline.

    The defaults reproduce the configuration the paper converges on: SZ2 with
    a relative error bound of 1e-2 for the large weight tensors, blosc-lz for
    the metadata/non-weight remainder.
    """

    error_bound: float = RECOMMENDED_ERROR_BOUND
    error_bound_mode: ErrorBoundMode = ErrorBoundMode.REL
    lossy_compressor: str = "sz2"
    lossless_compressor: str = "blosc-lz"
    partition_threshold: int = DEFAULT_PARTITION_THRESHOLD
    #: Extra keyword arguments forwarded to the lossy compressor factory.
    lossy_options: Dict[str, object] = field(default_factory=dict)
    #: Cap on the thread pool the pipeline runs big codec groups on
    #: (``core.pipeline.resolve_codec_workers`` decides when it runs): ``1``
    #: forces the serial path, ``None`` allows the host's cores.  Payloads are
    #: byte-identical at any value.
    max_codec_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.error_bound) or self.error_bound <= 0:
            raise ValueError(f"error_bound must be positive and finite, got {self.error_bound}")
        for field_name, known in (
            ("lossy_compressor", available_lossy_compressors()),
            ("lossless_compressor", available_lossless_compressors()),
        ):
            name = getattr(self, field_name)
            if not isinstance(name, str) or name.lower() not in known:
                raise ValueError(f"{field_name} must be one of {known}, got {name!r}")
        require_count("partition_threshold", self.partition_threshold, minimum=0)
        if self.max_codec_workers is not None:
            require_count("max_codec_workers", self.max_codec_workers)

    def describe(self) -> str:
        """One-line human-readable summary used in logs and reports."""
        cap = "" if self.max_codec_workers is None else f", codec_workers<={self.max_codec_workers}"
        return (
            f"FedSZ({self.lossy_compressor} @ {self.error_bound:g} {self.error_bound_mode.value}, "
            f"lossless={self.lossless_compressor}, threshold={self.partition_threshold}{cap})"
        )
