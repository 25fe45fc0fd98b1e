"""Figure 8 — communication time for AlexNet over a bandwidth sweep.

The key operational insight of the paper: compressing is only worthwhile
below a bandwidth threshold.  With Raspberry Pi 5 codec runtimes, SZ2/SZ3/ZFP
beat the uncompressed transfer up to roughly 500 Mbps, above which codec
runtime dominates.  The harness sweeps 1 Mbps – 10 Gbps, reports the
communication time per compressor, and computes each compressor's crossover
bandwidth from Eqn. 1.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core import FedSZConfig, compress_state_dict, decompress_state_dict
from repro.experiments.figure7_comm_time_vs_bound import PAPER_STATE_NBYTES
from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import pretrained_like_state_dict
from repro.network import LinkSpec, crossover_bandwidth_mbps

DEFAULT_COMPRESSORS = ("sz2", "sz3", "zfp")


def default_bandwidths(points: int = 17) -> Sequence[float]:
    """Log-spaced bandwidths between 1 Mbps and 10 Gbps."""
    return [float(b) for b in np.logspace(0, 4, points)]


def run_figure8(
    model: str = "alexnet",
    compressors: Sequence[str] = DEFAULT_COMPRESSORS,
    bandwidths_mbps: Optional[Sequence[float]] = None,
    error_bound: float = 1e-2,
    device: Optional[str] = "raspberry-pi-5",
    max_elements_per_tensor: Optional[int] = 200_000,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Figure 8 (communication time vs bandwidth, per compressor)."""
    bandwidths = list(bandwidths_mbps or default_bandwidths())
    result = ExperimentResult(
        name=f"Figure 8 — communication time vs bandwidth ({model}, REL {error_bound:g})",
        description=(
            "Codec + transfer time for one client update across a bandwidth sweep, per "
            "compressor, against the uncompressed transfer."
        ),
    )
    state = pretrained_like_state_dict(model, "cifar10", max_elements_per_tensor, seed)
    sampled_nbytes = sum(v.nbytes for v in state.values())
    full_nbytes = PAPER_STATE_NBYTES.get(model, sampled_nbytes)
    scale = full_nbytes / sampled_nbytes

    per_compressor = {}
    for compressor in compressors:
        config = FedSZConfig(error_bound=error_bound, lossy_compressor=compressor)
        payload, report = compress_state_dict(state, config)
        if device is None:  # the host's codec seconds are billed: time its decode too
            decompress_state_dict(payload, config, report=report)
        per_compressor[compressor] = report

    decisions = {}
    for bandwidth in bandwidths:
        # The sweep walks one edge client's uplink through every bandwidth;
        # the spec's device profile models on-client codec runtime.
        uplink = LinkSpec(bandwidth_mbps=bandwidth, device=device)
        baseline = uplink.estimate_upload(full_nbytes, None)
        result.add_row(
            compressor="original",
            bandwidth_mbps=bandwidth,
            communication_seconds=baseline.total_seconds,
            worthwhile=False,
        )
        for compressor, report in per_compressor.items():
            decision = decisions[compressor] = uplink.estimate_upload(
                full_nbytes,
                int(report.compressed_nbytes * scale),
                compressor=compressor,
                error_bound=error_bound,
                measured_compress_seconds=report.compress_seconds * scale,
                measured_decompress_seconds=(report.decompress_seconds or 0.0) * scale,
            )
            result.add_row(
                compressor=compressor,
                bandwidth_mbps=bandwidth,
                communication_seconds=decision.total_seconds,
                worthwhile=decision.worthwhile,
            )

    # Byte counts and codec seconds do not depend on the bandwidth, so any
    # decision of the sweep carries what the crossover is solved from.
    for compressor, decision in decisions.items():
        crossover = crossover_bandwidth_mbps(
            decision.original_nbytes,
            decision.compressed_nbytes,
            decision.compress_seconds,
            decision.decompress_seconds,
        )
        result.add_note(
            f"{compressor}: compression worthwhile below ~{crossover:.0f} Mbps "
            "(paper: ~500 Mbps for the SZ family)"
        )
    return result


def crossover_for(result: ExperimentResult, compressor: str) -> float:
    """Highest swept bandwidth at which ``compressor`` was still worthwhile."""
    worthwhile = [
        float(row["bandwidth_mbps"])
        for row in result.filter(compressor=compressor)
        if row["worthwhile"]
    ]
    return max(worthwhile) if worthwhile else 0.0


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_figure8(max_elements_per_tensor=100_000).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
