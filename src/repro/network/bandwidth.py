"""The link model: one place that turns bytes and codec runs into seconds.

A link has a bandwidth and a latency; an upload costs codec seconds plus wire
seconds; codec seconds are either measured on this host or modelled on the
client's device (the paper's Raspberry Pi 5 convention, Table I).
:class:`LinkSpec` is that model.  The federated runtime bills every simulated
transfer through it and the analytic estimators (Eqn. 1, Figures 7-9) read the
same methods, so a round and a figure can never disagree about what a byte or
a codec run costs.

The paper emulates constrained networks by inserting sleeps sized so that each
transfer takes as long as it would on the target link (Section VI-C).
:class:`SimulatedChannel` is the transfer log of such a link: it records the
seconds those sleeps would last and never sleeps — a sleep changes no
recorded number, only the wall time of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.network.devices import DeviceProfile, get_device_profile
from repro.utils.sizes import megabits_per_second_to_bytes_per_second


@dataclass(frozen=True)
class LinkSpec:
    """One client's link (and optionally its hardware).

    ``straggler_factor`` multiplies the modelled transfer time of every send
    (a factor of 20 turns the client into a straggler without changing the
    link's nominal bandwidth); ``dropout_probability`` is the per-round chance
    that the client's update is lost in transit.  ``device`` names a
    :func:`repro.network.get_device_profile` profile used to *model* codec
    runtime on that client instead of trusting this host's measurement.
    ``LinkSpec(bandwidth_mbps=B)`` is the bare ``S / B_N`` link of Eqn. 1.
    """

    bandwidth_mbps: float = 10.0
    latency_seconds: float = 0.0
    straggler_factor: float = 1.0
    dropout_probability: float = 0.0
    device: Optional[str] = None

    def __post_init__(self) -> None:
        # ``not (x > 0)`` rather than ``x <= 0``: NaN fails both comparisons.
        if not (math.isfinite(self.bandwidth_mbps) and self.bandwidth_mbps > 0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth_mbps}")
        if not (math.isfinite(self.latency_seconds) and self.latency_seconds >= 0):
            raise ValueError(f"latency must be finite and >= 0, got {self.latency_seconds}")
        if not (math.isfinite(self.straggler_factor) and self.straggler_factor > 0):
            raise ValueError(f"straggler_factor must be positive, got {self.straggler_factor}")
        if not 0.0 <= self.dropout_probability < 1.0:
            raise ValueError(
                f"dropout_probability must lie in [0, 1), got {self.dropout_probability}"
            )
        try:
            self.device_profile  # noqa: B018 - resolving the name is the check
        except KeyError as error:
            raise ValueError(error.args[0]) from None

    @property
    def device_profile(self) -> Optional[DeviceProfile]:
        """The client's hardware model; ``None`` means "measure on this host"."""
        return get_device_profile(self.device)

    def transmission_seconds(self, num_bytes: int) -> float:
        """Seconds this link is occupied moving ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError(f"byte count must be non-negative, got {num_bytes}")
        bytes_per_second = megabits_per_second_to_bytes_per_second(self.bandwidth_mbps)
        return (self.latency_seconds + num_bytes / bytes_per_second) * self.straggler_factor

    def codec_seconds(
        self,
        compressor: Optional[str],
        error_bound: Optional[float],
        original_nbytes: int,
        measured: Tuple[float, float] = (0.0, 0.0),
        delivered: bool = True,
    ) -> Tuple[float, float]:
        """The ``(t_C, t_D)`` to bill for one codec run over ``original_nbytes``.

        On a device link, for a codec that names its lossy compressor, both
        are modelled from the device's published throughputs and this host's
        ``measured`` pair is ignored; otherwise ``measured`` is billed as is.
        An upload that was not ``delivered`` is never decompressed.
        """
        profile = self.device_profile
        if profile is None or compressor is None:
            return measured
        bound = error_bound or 1e-2
        compress_seconds = profile.compression_seconds(compressor, original_nbytes, bound)
        if not delivered:
            return compress_seconds, 0.0
        return compress_seconds, profile.decompression_seconds(compressor, original_nbytes, bound)

    def estimate_upload(
        self,
        original_nbytes: int,
        compressed_nbytes: Optional[int] = None,
        compressor: Optional[str] = None,
        error_bound: Optional[float] = None,
        measured_compress_seconds: float = 0.0,
        measured_decompress_seconds: float = 0.0,
    ) -> "CompressionDecision":
        """Eqn. 1 for shipping one update over this link.

        ``compressed_nbytes=None`` is the uncompressed baseline: the original
        bytes travel and no codec runs.
        """
        if compressed_nbytes is None:
            return CompressionDecision(self, int(original_nbytes), int(original_nbytes), 0.0, 0.0)
        compress_seconds, decompress_seconds = self.codec_seconds(
            compressor,
            error_bound,
            original_nbytes,
            (measured_compress_seconds, measured_decompress_seconds),
        )
        return CompressionDecision(
            self,
            int(original_nbytes),
            int(compressed_nbytes),
            compress_seconds,
            decompress_seconds,
            compressor,
            error_bound,
        )


@dataclass(frozen=True)
class CompressionDecision:
    """Eqn. 1 (Section II-B) for one payload on one link.

    Compressing is a runtime win whenever compressing, decompressing and
    sending the *compressed* payload takes less time than sending the
    original: ``0 < t_C + t_D + S'/B_N < S/B_N``.
    """

    link: LinkSpec
    original_nbytes: int
    compressed_nbytes: int
    compress_seconds: float
    decompress_seconds: float
    compressor: Optional[str] = None
    error_bound: Optional[float] = None

    @property
    def uncompressed_transfer_seconds(self) -> float:
        """Time to send the original payload (S / B_N)."""
        return self.link.transmission_seconds(self.original_nbytes)

    @property
    def transfer_seconds(self) -> float:
        """Pure wire time of the transmitted payload (S' / B_N)."""
        return self.link.transmission_seconds(self.compressed_nbytes)

    @property
    def total_seconds(self) -> float:
        """t_C + t_D + S' / B_N."""
        return self.compress_seconds + self.decompress_seconds + self.transfer_seconds

    @property
    def worthwhile(self) -> bool:
        """True when Eqn. 1 holds (compression reduces end-to-end time)."""
        return 0.0 < self.total_seconds < self.uncompressed_transfer_seconds

    @property
    def seconds_saved(self) -> float:
        """Net saving (positive when compression wins)."""
        return self.uncompressed_transfer_seconds - self.total_seconds

    @property
    def speedup(self) -> float:
        """Uncompressed time divided by compressed time."""
        total = self.total_seconds
        if total <= 0:
            return float("inf")
        return self.uncompressed_transfer_seconds / total


#: Bandwidths highlighted in the paper's evaluation.
EDGE_BANDWIDTH_MBPS = 10.0  # typical constrained edge uplink (Figure 7/9)
DATACENTER_BANDWIDTH_MBPS = 10_000.0  # "can approach 10 Gbps" (Section VI-C)


@dataclass
class TransferRecord:
    """One simulated transfer."""

    payload_nbytes: int
    seconds: float
    description: str = ""


@dataclass
class SimulatedChannel:
    """Transfer log of one link, accumulating simulated transfer time."""

    spec: LinkSpec
    transfers: List[TransferRecord] = field(default_factory=list)

    def send(self, payload: bytes | int, description: str = "") -> TransferRecord:
        """Simulate sending ``payload`` (bytes object or a byte count)."""
        num_bytes = payload if isinstance(payload, int) else len(payload)
        seconds = self.spec.transmission_seconds(num_bytes)
        record = TransferRecord(payload_nbytes=num_bytes, seconds=seconds, description=description)
        self.transfers.append(record)
        return record

    @property
    def total_seconds(self) -> float:
        """Total simulated transfer time so far."""
        return sum(record.seconds for record in self.transfers)

    @property
    def total_bytes(self) -> int:
        """Total bytes pushed through the channel so far."""
        return sum(record.payload_nbytes for record in self.transfers)

    def reset(self) -> None:
        """Forget all recorded transfers."""
        self.transfers.clear()
