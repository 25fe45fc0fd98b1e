"""Figure 7 — total communication time per model over different REL bounds.

At a 10 Mbps emulated uplink, the paper compares the time to ship one client
update (compression + decompression + transfer of the compressed payload)
against the uncompressed transfer for error bounds 1e-5 … 1e-2, finding an
order-of-magnitude reduction at every bound (13.26× for AlexNet at 1e-2).

The harness measures the real FedSZ ratio on trained-like state dicts, models
the codec runtime with the Raspberry Pi 5 profile, and evaluates the Eqn.-1
communication time on the configured link.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core import FedSZConfig, compress_state_dict
from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import PAPER_MODELS, pretrained_like_state_dict
from repro.network import LinkSpec

DEFAULT_BOUNDS = (1e-5, 1e-4, 1e-3, 1e-2)

#: Full state-dict sizes (bytes) of the paper-scale models, used to scale the
#: sub-sampled measurement back to whole-model communication times.
PAPER_STATE_NBYTES: Dict[str, int] = {
    "alexnet": 244_000_000,
    "mobilenetv2": 14_000_000,
    "resnet50": 102_000_000,
}


def run_figure7(
    models: Sequence[str] = PAPER_MODELS,
    error_bounds: Sequence[float] = DEFAULT_BOUNDS,
    bandwidth_mbps: float = 10.0,
    device: Optional[str] = "raspberry-pi-5",
    max_elements_per_tensor: Optional[int] = 200_000,
    dataset: str = "cifar10",
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Figure 7 (communication time vs error bound at 10 Mbps)."""
    result = ExperimentResult(
        name=f"Figure 7 — communication time vs REL bound at {bandwidth_mbps:g} Mbps",
        description=(
            "End-to-end time (codec + transfer) to ship one client update, per model and "
            "error bound, against the uncompressed baseline."
        ),
    )
    # One edge client's uplink: the spec carries the bandwidth and the device
    # profile that models codec runtime on-client.
    uplink = LinkSpec(bandwidth_mbps=bandwidth_mbps, device=device)

    for model in models:
        state = pretrained_like_state_dict(model, dataset, max_elements_per_tensor, seed)
        sampled_nbytes = sum(v.nbytes for v in state.values())
        full_nbytes = PAPER_STATE_NBYTES.get(model, sampled_nbytes)
        scale = full_nbytes / sampled_nbytes

        baseline = uplink.estimate_upload(full_nbytes, None)
        result.add_row(
            model=model,
            error_bound=0.0,
            compressed=False,
            ratio=1.0,
            communication_seconds=baseline.total_seconds,
            speedup=1.0,
        )

        for bound in error_bounds:
            _, report = compress_state_dict(state, FedSZConfig(error_bound=bound))
            compressed_full = int(report.compressed_nbytes * scale)
            estimate = uplink.estimate_upload(
                full_nbytes,
                compressed_full,
                compressor="sz2",
                error_bound=bound,
                measured_compress_seconds=report.compress_seconds * scale,
                measured_decompress_seconds=(report.decompress_seconds or 0.0) * scale,
            )
            result.add_row(
                model=model,
                error_bound=bound,
                compressed=True,
                ratio=report.ratio,
                communication_seconds=estimate.total_seconds,
                speedup=baseline.total_seconds / estimate.total_seconds,
            )

    for model in models:
        rows = [r for r in result.filter(model=model, compressed=True) if r["error_bound"] == 1e-2]
        if rows:
            result.add_note(
                f"{model}: {rows[0]['speedup']:.1f}x faster than uncompressed at REL 1e-2 "
                "(paper: 13.26x for AlexNet)"
            )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_figure7(max_elements_per_tensor=100_000).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
