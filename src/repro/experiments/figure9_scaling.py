"""Figure 9 — weak and strong scaling of FedSZ on a 10 Mbps emulated network.

The paper scales MobileNetV2 / CIFAR-10 training from 2 to 128 MPI processes
on a cluster while emulating a 10 Mbps network and shows that (a) per-client
epoch time grows with the client count in the weak-scaling regime, much more
slowly with FedSZ than without, and (b) with a fixed population of 127
clients, adding cores yields a strong-scaling speedup (7.51× at 128 cores in
the paper).

The harness calibrates the scaling model's compression and update-size inputs
from one FedSZ pass over a paper-scale state dict, then evaluates the analytic
weak/strong scaling curves with and without FedSZ.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.reporting import ExperimentResult
from repro.network import ScalingConfig, speedup_curve, strong_scaling, weak_scaling

DEFAULT_CORE_COUNTS = (2, 4, 8, 16, 32, 64, 128)


def calibrate_scaling_inputs(
    model: str = "mobilenetv2",
    dataset: str = "cifar10",
    error_bound: float = 1e-2,
    bandwidth_mbps: float = 10.0,
    train_seconds_per_client: float = 12.0,
    update_nbytes: int = 14_000_000,
    max_elements_per_tensor: int = 150_000,
    seed: int = 0,
) -> dict:
    """Build the scaling-model inputs for the paper's MobileNetV2 setting.

    The update size (14 MB MobileNetV2 state dict), compression ratio and
    compression runtime are measured by running FedSZ over a trained-like
    paper-scale state dict; the per-client training time defaults to the
    cluster-scale epoch time observed in Figure 6 (order of ten seconds),
    because the pure-numpy tiny models train far faster than the paper's GPU
    clients and would otherwise make communication look disproportionally
    expensive.
    """
    from repro.core import FedSZConfig, compress_state_dict
    from repro.experiments.workloads import pretrained_like_state_dict

    state = pretrained_like_state_dict(model, dataset, max_elements_per_tensor, seed)
    _, report = compress_state_dict(state, FedSZConfig(error_bound=error_bound))
    scale = update_nbytes / max(report.original_nbytes, 1)

    return {
        "train_seconds_per_client": float(train_seconds_per_client),
        "compress_seconds_per_client": report.compress_seconds * scale,
        "update_nbytes": int(update_nbytes),
        "compressed_nbytes": int(update_nbytes / report.ratio),
        "bandwidth_mbps": bandwidth_mbps,
    }


def run_figure9(
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    model: str = "mobilenetv2",
    dataset: str = "cifar10",
    total_clients: int = 127,
    error_bound: float = 1e-2,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Figure 9 (weak and strong scaling, FedSZ vs uncompressed)."""
    result = ExperimentResult(
        name=f"Figure 9 — weak/strong scaling ({model} / {dataset}, 10 Mbps)",
        description="Per-client epoch time versus MPI core count, with and without FedSZ.",
    )
    inputs = calibrate_scaling_inputs(
        model=model,
        dataset=dataset,
        error_bound=error_bound,
        seed=seed,
    )
    fedsz_config = ScalingConfig(
        update_nbytes=inputs["update_nbytes"],
        compressed_nbytes=inputs["compressed_nbytes"],
        train_seconds_per_client=inputs["train_seconds_per_client"],
        compress_seconds_per_client=inputs["compress_seconds_per_client"],
        bandwidth_mbps=inputs["bandwidth_mbps"],
    )
    raw_config = ScalingConfig(
        update_nbytes=inputs["update_nbytes"],
        compressed_nbytes=None,
        train_seconds_per_client=inputs["train_seconds_per_client"],
        compress_seconds_per_client=0.0,
        bandwidth_mbps=inputs["bandwidth_mbps"],
    )

    core_counts = list(core_counts)
    for label, config in (("fedsz", fedsz_config), ("uncompressed", raw_config)):
        for point in weak_scaling(config, core_counts):
            result.add_row(
                experiment="weak",
                configuration=label,
                cores=point.cores,
                clients=point.clients,
                epoch_seconds_per_client=point.epoch_seconds_per_client,
            )
        strong_points = strong_scaling(config, core_counts, total_clients=total_clients)
        speedups = speedup_curve(strong_points)
        for point in strong_points:
            result.add_row(
                experiment="strong",
                configuration=label,
                cores=point.cores,
                clients=point.clients,
                epoch_seconds_per_client=point.epoch_seconds_per_client,
                speedup=speedups[point.cores],
            )

    fedsz_strong = [
        row for row in result.filter(experiment="strong", configuration="fedsz")
        if row["cores"] == max(core_counts)
    ]
    if fedsz_strong:
        result.add_note(
            f"FedSZ strong-scaling speedup at {max(core_counts)} cores: "
            f"{fedsz_strong[0]['speedup']:.2f}x (paper: 7.51x at 128)"
        )
    weak_fedsz = result.filter(experiment="weak", configuration="fedsz")
    weak_raw = result.filter(experiment="weak", configuration="uncompressed")
    if weak_fedsz and weak_raw:
        result.add_note(
            "weak-scaling growth (largest/smallest core count): "
            f"FedSZ {weak_fedsz[-1]['epoch_seconds_per_client'] / weak_fedsz[0]['epoch_seconds_per_client']:.1f}x vs "
            f"uncompressed {weak_raw[-1]['epoch_seconds_per_client'] / weak_raw[0]['epoch_seconds_per_client']:.1f}x"
        )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_figure9().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
