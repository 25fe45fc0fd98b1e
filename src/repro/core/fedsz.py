"""The public FedSZ API.

:class:`FedSZCompressor` wraps the pipeline behind the simple
``compress(state_dict) -> bytes`` / ``decompress(bytes) -> state_dict``
interface the federated runtime (and any external FL framework) needs, keeps
the report of the last invocation for inspection, and exposes the Eqn.-1
worthwhileness check for a given link bandwidth.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.compression.base import ErrorBoundMode
from repro.compression.inflate import crc32
from repro.core.config import FedSZConfig
from repro.core.pipeline import FedSZReport, compress_state_dict, decompress_state_dict
from repro.network.decision import CompressionDecision, should_compress


def _payload_digest(payload: bytes) -> Tuple[int, int]:
    """Cheap identity fingerprint for "is this the payload I just produced?".

    Length and CRC-32: nobody forges a payload to borrow a timing map, and a
    cryptographic hash of every payload, twice a round trip, was the one cost
    of a codec op that no span of the trace covered.
    """
    return len(payload), crc32(payload)


class FedSZCompressor:
    """FedSZ: error-bounded lossy compression for FL model updates.

    Example
    -------
    >>> from repro.nn.models import create_model
    >>> from repro.core import FedSZCompressor
    >>> model = create_model("mobilenetv2", "tiny", seed=0)
    >>> codec = FedSZCompressor(error_bound=1e-2)
    >>> payload = codec.compress(model.state_dict())
    >>> restored = codec.decompress(payload)
    >>> codec.last_report.ratio > 1.0
    True
    """

    def __init__(
        self,
        error_bound: float = 1e-2,
        error_bound_mode: ErrorBoundMode = ErrorBoundMode.REL,
        lossy_compressor: str = "sz2",
        lossless_compressor: str = "blosc-lz",
        partition_threshold: int = 1024,
        lossy_options: Optional[Dict[str, object]] = None,
        max_codec_workers: Optional[int] = None,
    ) -> None:
        self.config = FedSZConfig(
            error_bound=error_bound,
            error_bound_mode=error_bound_mode,
            lossy_compressor=lossy_compressor,
            lossless_compressor=lossless_compressor,
            partition_threshold=partition_threshold,
            lossy_options=dict(lossy_options or {}),
            max_codec_workers=max_codec_workers,
        )
        self.last_report: Optional[FedSZReport] = None
        self._last_payload_digest: Optional[Tuple[int, int]] = None

    @classmethod
    def from_config(cls, config: FedSZConfig) -> "FedSZCompressor":
        """Build a compressor from an existing :class:`FedSZConfig`."""
        instance = cls.__new__(cls)
        instance.config = config
        instance.last_report = None
        instance._last_payload_digest = None
        return instance

    def clone(self) -> "FedSZCompressor":
        """A fresh compressor with the same configuration and no report state.

        The serial executor's upload lanes and each process worker code on a
        clone, so concurrent compressions keep independent ``last_report``s
        instead of clobbering a shared one.  Subclasses carrying extra state must override this (the
        default only copies the config).
        """
        return type(self).from_config(self.config)

    # ------------------------------------------------------------------
    # Codec interface (what the FL runtime calls)
    # ------------------------------------------------------------------
    def compress(self, state_dict: Mapping[str, np.ndarray]) -> bytes:
        """Compress a model state dict into a transmissible byte payload."""
        payload, report = compress_state_dict(state_dict, self.config)
        self.last_report = report
        self._last_payload_digest = _payload_digest(payload)
        return payload

    def decompress(self, payload: bytes) -> Dict[str, np.ndarray]:
        """Reconstruct a state dict from a FedSZ payload.

        Decoding honours the configured codec-pool cap.  Measured
        per-tensor decode times are recorded onto ``last_report`` only when
        ``payload`` is the one ``compress`` produced (same length and CRC-32)
        — decompressing any other payload, even one with the same tensor
        names, must not mix foreign timings into an unrelated report.
        """
        matches = (
            self.last_report is not None
            and getattr(self, "_last_payload_digest", None) == _payload_digest(payload)
        )
        return decompress_state_dict(
            payload, self.config, report=self.last_report if matches else None
        )

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def report(self) -> FedSZReport:
        """Report of the most recent :meth:`compress` call."""
        if self.last_report is None:
            raise RuntimeError("no compression has been performed yet")
        return self.last_report

    def compression_errors(
        self, original: Mapping[str, np.ndarray], restored: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Flattened element-wise errors over the lossy-compressed tensors.

        This is the error population whose Laplace-like shape Section VII-D
        analyses for differential-privacy potential.
        """
        errors = []
        for name, tensor in original.items():
            if name not in restored:
                continue
            difference = np.asarray(restored[name], dtype=np.float64) - np.asarray(
                tensor, dtype=np.float64
            )
            if np.any(difference != 0):
                errors.append(difference.ravel())
        if not errors:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(errors)

    def is_worthwhile(self, bandwidth_mbps: float) -> CompressionDecision:
        """Evaluate Eqn. 1 for the last compressed payload on a given link."""
        report = self.report()
        decompress_seconds = report.decompress_seconds or report.compress_seconds * 0.5
        return should_compress(
            original_nbytes=report.original_nbytes,
            compressed_nbytes=report.compressed_nbytes,
            compress_seconds=report.compress_seconds,
            decompress_seconds=decompress_seconds,
            bandwidth_mbps=bandwidth_mbps,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FedSZCompressor({self.config.describe()})"


class IdentityCodec:
    """No-op codec used as the uncompressed baseline in experiments.

    It serializes the state dict to raw bytes (so payload sizes are
    comparable) but applies no compression at all.
    """

    def __init__(self) -> None:
        self.last_report: Optional[FedSZReport] = None

    def clone(self) -> "IdentityCodec":
        """A fresh identity codec (per-client instances in parallel rounds)."""
        return IdentityCodec()

    def compress(self, state_dict: Mapping[str, np.ndarray]) -> bytes:
        from repro.core.serializer import serialize_named_arrays

        payload = serialize_named_arrays(state_dict)
        original = int(sum(np.asarray(v).nbytes for v in state_dict.values()))
        self.last_report = FedSZReport(
            original_nbytes=original,
            compressed_nbytes=len(payload),
            lossless_original_nbytes=original,
            lossless_compressed_nbytes=len(payload),
            lossless_tensor_count=len(state_dict),
        )
        return payload

    def decompress(self, payload: bytes) -> Dict[str, np.ndarray]:
        from repro.core.serializer import deserialize_named_arrays

        return deserialize_named_arrays(payload)
