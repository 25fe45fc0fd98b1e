"""Compute-device profiles for compression-runtime modelling.

The paper separates *where* numbers come from: accuracy and convergence are
measured on a GPU cluster, while compression runtime/throughput is measured
on a Raspberry Pi 5 (Table I) because FedSZ targets edge clients.  This
module encodes that split:

* ``local`` — runtimes are whatever this host measures (pass-through);
* ``raspberry-pi-5`` — runtimes are derived from the paper's published
  Table I/II throughputs, so communication-time experiments (Figures 7 and 8)
  can be reproduced with the same device assumptions as the paper even though
  no Raspberry Pi is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

#: Table I compression throughput (MB/s of uncompressed data) on a
#: Raspberry Pi 5, keyed by compressor and relative error bound.  Values are
#: the AlexNet rows, which the paper uses for its bandwidth analysis (Fig. 8).
RASPBERRY_PI_5_THROUGHPUT_MBPS: Dict[str, Dict[float, float]] = {
    "sz2": {1e-2: 70.75, 1e-3: 46.26, 1e-4: 34.34},
    "sz3": {1e-2: 31.58, 1e-3: 25.94, 1e-4: 21.34},
    "szx": {1e-2: 3514.92, 1e-3: 3554.84, 1e-4: 3507.02},
    "zfp": {1e-2: 120.66, 1e-3: 108.17, 1e-4: 96.51},
}

#: Table II lossless throughput (MB/s) on a Raspberry Pi 5.
RASPBERRY_PI_5_LOSSLESS_THROUGHPUT_MBPS: Dict[str, float] = {
    "blosc-lz": 674.5,
    "gzip": 28.16,
    "xz": 4.00,
    "zlib": 28.37,
    "zstd": 348.6,
}

#: Decompression is roughly 2× faster than compression for the SZ family on
#: small ARM cores; used when a profile does not specify decompression rates.
_DEFAULT_DECOMPRESSION_SPEEDUP = 2.0


@dataclass(frozen=True)
class DeviceProfile:
    """Analytic compression-runtime model for a named device.

    ``throughput_mbps`` maps compressor name → {error bound → MB/s}.  When a
    requested error bound is missing, the nearest configured bound is used
    (the paper only publishes three bounds per compressor); REL bounds are
    decades, so "nearest" is measured in ``log10``.
    """

    name: str
    throughput_mbps: Mapping[str, Mapping[float, float]]
    lossless_throughput_mbps: Mapping[str, float]
    decompression_speedup: float = _DEFAULT_DECOMPRESSION_SPEEDUP

    def models(self, compressor: str) -> bool:
        """Whether this device has a throughput table for ``compressor``."""
        return compressor.lower() in self.throughput_mbps

    def compression_seconds(
        self, compressor: str, num_bytes: int, error_bound: float = 1e-2
    ) -> float:
        """Modelled time to compress ``num_bytes`` of data."""
        throughput = self._lookup_throughput(compressor, error_bound)
        return num_bytes / 1e6 / throughput

    def decompression_seconds(
        self, compressor: str, num_bytes: int, error_bound: float = 1e-2
    ) -> float:
        """Modelled time to decompress back to ``num_bytes`` of data."""
        throughput = self._lookup_throughput(compressor, error_bound) * self.decompression_speedup
        return num_bytes / 1e6 / throughput

    def lossless_seconds(self, compressor: str, num_bytes: int) -> float:
        """Modelled time for the lossless stage."""
        key = compressor.lower()
        if key not in self.lossless_throughput_mbps:
            raise KeyError(
                f"device {self.name!r} has no throughput entry for lossless codec {compressor!r}"
            )
        return num_bytes / 1e6 / self.lossless_throughput_mbps[key]

    def _lookup_throughput(self, compressor: str, error_bound: float) -> float:
        if not self.models(compressor):
            raise KeyError(
                f"device {self.name!r} has no throughput entry for compressor {compressor!r}"
            )
        per_bound = self.throughput_mbps[compressor.lower()]
        target = math.log10(error_bound)
        nearest = min(per_bound, key=lambda bound: abs(math.log10(bound) - target))
        return per_bound[nearest]


RASPBERRY_PI_5 = DeviceProfile(
    name="raspberry-pi-5",
    throughput_mbps=RASPBERRY_PI_5_THROUGHPUT_MBPS,
    lossless_throughput_mbps=RASPBERRY_PI_5_LOSSLESS_THROUGHPUT_MBPS,
)


def get_device_profile(name: str) -> Optional[DeviceProfile]:
    """Look up a named device profile.

    ``"local"`` (or ``None``) returns ``None``, meaning "measure on this
    host" — callers fall back to timing the actual codec run.
    """
    if name is None or name.lower() in {"local", "host"}:
        return None
    if name.lower() in {"raspberry-pi-5", "rpi5", "raspberrypi5"}:
        return RASPBERRY_PI_5
    raise KeyError(f"unknown device profile {name!r}; available: 'local', 'raspberry-pi-5'")
