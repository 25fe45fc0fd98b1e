"""Weak/strong scaling simulator (Figure 9).

The paper evaluates FedSZ's scalability on a cluster by growing the number of
MPI processes (one process per CPU core) while emulating a 10 Mbps network:

* **weak scaling** — one client per core, so the client count grows with the
  core count; the server ingests every update over the shared emulated link,
  so per-client epoch time grows roughly linearly with the client count, and
  compression keeps the growth much flatter;
* **strong scaling** — a fixed population of 127 clients is spread over the
  available cores; more cores mean fewer sequential training "waves" per
  round, so epoch time per client drops.

The simulator reproduces that analytic model: epoch time per client is the
training + compression time of the waves the core must process plus the
serialized server-ingest time of every update in the round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.network.bandwidth import LinkSpec


@dataclass(frozen=True)
class ScalingConfig:
    """Inputs to the scaling model.

    ``server_bandwidth_multiplier`` models the server side of the emulated
    network: client uplinks run in parallel at ``bandwidth_mbps``, while the
    server ingests every update through a shared pipe that is this many times
    faster than a single client link.  The ingest term is what makes weak
    scaling grow with the client count and what compression flattens.
    """

    update_nbytes: int
    compressed_nbytes: Optional[int]
    train_seconds_per_client: float
    compress_seconds_per_client: float
    bandwidth_mbps: float = 10.0
    server_bandwidth_multiplier: float = 2.0

    @property
    def transmitted_nbytes(self) -> int:
        """Bytes actually shipped per client update."""
        if self.compressed_nbytes is None:
            return self.update_nbytes
        return self.compressed_nbytes


@dataclass(frozen=True)
class ScalingPoint:
    """One (cores, clients) measurement of the scaling curves."""

    cores: int
    clients: int
    epoch_seconds_per_client: float


def _epoch_time(config: ScalingConfig, cores: int, clients: int) -> float:
    """Per-client epoch time for a given core/client configuration."""
    if cores <= 0 or clients <= 0:
        raise ValueError("cores and clients must be positive")
    waves = math.ceil(clients / cores)
    compute = waves * (config.train_seconds_per_client + config.compress_seconds_per_client)
    client_link = LinkSpec(bandwidth_mbps=config.bandwidth_mbps)
    uplink = waves * client_link.transmission_seconds(config.transmitted_nbytes)
    server_link = LinkSpec(
        bandwidth_mbps=config.bandwidth_mbps * config.server_bandwidth_multiplier
    )
    ingest = clients * server_link.transmission_seconds(config.transmitted_nbytes)
    return compute + uplink + ingest


def weak_scaling(config: ScalingConfig, core_counts: List[int]) -> List[ScalingPoint]:
    """One client per core, client count grows with the core count."""
    return [
        ScalingPoint(cores=cores, clients=cores, epoch_seconds_per_client=_epoch_time(config, cores, cores))
        for cores in core_counts
    ]


def strong_scaling(
    config: ScalingConfig, core_counts: List[int], total_clients: int = 127
) -> List[ScalingPoint]:
    """Fixed client population spread over a growing core count."""
    return [
        ScalingPoint(
            cores=cores,
            clients=total_clients,
            epoch_seconds_per_client=_epoch_time(config, cores, total_clients),
        )
        for cores in core_counts
    ]


def speedup_curve(points: List[ScalingPoint]) -> Dict[int, float]:
    """Speedup of each point relative to the smallest core count."""
    if not points:
        return {}
    baseline = points[0].epoch_seconds_per_client
    return {point.cores: baseline / point.epoch_seconds_per_client for point in points}
