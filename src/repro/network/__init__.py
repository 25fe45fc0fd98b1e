"""Network and device models.

Implements the communication side of the evaluation: :class:`LinkSpec`, the
one link/codec-time model (bandwidth, latency, straggling, and the Raspberry
Pi 5 device profile behind modelled codec runtimes) with its Eqn.-1 "is
compression worthwhile" estimate, the sleep-emulated channel log, and the
weak/strong scaling simulator built on it.
"""

from repro.network.bandwidth import (
    DATACENTER_BANDWIDTH_MBPS,
    EDGE_BANDWIDTH_MBPS,
    CompressionDecision,
    LinkSpec,
    SimulatedChannel,
    TransferRecord,
)
from repro.network.decision import crossover_bandwidth_mbps, should_compress
from repro.network.devices import (
    RASPBERRY_PI_5,
    RASPBERRY_PI_5_LOSSLESS_THROUGHPUT_MBPS,
    RASPBERRY_PI_5_THROUGHPUT_MBPS,
    DeviceProfile,
    get_device_profile,
)
from repro.network.scaling import (
    ScalingConfig,
    ScalingPoint,
    speedup_curve,
    strong_scaling,
    weak_scaling,
)

__all__ = [
    "DATACENTER_BANDWIDTH_MBPS",
    "EDGE_BANDWIDTH_MBPS",
    "LinkSpec",
    "SimulatedChannel",
    "TransferRecord",
    "CompressionDecision",
    "crossover_bandwidth_mbps",
    "should_compress",
    "RASPBERRY_PI_5",
    "RASPBERRY_PI_5_LOSSLESS_THROUGHPUT_MBPS",
    "RASPBERRY_PI_5_THROUGHPUT_MBPS",
    "DeviceProfile",
    "get_device_profile",
    "ScalingConfig",
    "ScalingPoint",
    "speedup_curve",
    "strong_scaling",
    "weak_scaling",
]
