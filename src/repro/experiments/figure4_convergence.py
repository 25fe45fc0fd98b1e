"""Figure 4 — accuracy convergence per EBLC over federated rounds.

The paper trains AlexNet on CIFAR-10 with FedAvg for ten rounds while
compressing every client update with each candidate EBLC and finds that SZ2,
SZ3 and ZFP all track the uncompressed run, while SZx destroys accuracy.

The harness reruns that protocol on the tiny trainable model variants and the
synthetic datasets: one federated simulation per compressor (plus the
uncompressed baseline), identical seeds across runs so that the only
difference is the codec in the uplink path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core import FedSZCompressor
from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import build_federated_setup
from repro.fl import FederatedRuntime

DEFAULT_COMPRESSORS: Sequence[Optional[str]] = (None, "sz2", "sz3", "zfp", "szx")


def run_figure4(
    model: str = "resnet50",
    dataset: str = "cifar10",
    compressors: Sequence[Optional[str]] = DEFAULT_COMPRESSORS,
    rounds: int = 10,
    error_bound: float = 1e-2,
    num_clients: int = 4,
    samples: int = 600,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate one panel of Figure 4 (accuracy per round per compressor)."""
    result = ExperimentResult(
        name=f"Figure 4 — accuracy convergence per EBLC ({model} / {dataset})",
        description=(
            "Validation accuracy per communication round with client updates compressed "
            f"by each candidate EBLC at REL {error_bound:g} (None = uncompressed)."
        ),
    )
    curves: Dict[str, List[float]] = {}
    for compressor in compressors:
        setup = build_federated_setup(
            model_name=model,
            dataset_name=dataset,
            num_clients=num_clients,
            rounds=rounds,
            samples=samples,
            seed=seed,
        )
        codec = (
            None
            if compressor is None
            else FedSZCompressor(error_bound=error_bound, lossy_compressor=compressor)
        )
        history = FederatedRuntime(
            setup.model_fn, setup.train_dataset, setup.validation_dataset, setup.config, codec=codec
        ).run()
        label = compressor or "uncompressed"
        curves[label] = history.accuracies()
        for round_index, accuracy in enumerate(history.accuracies()):
            result.add_row(
                compressor=label,
                round=round_index,
                accuracy=accuracy,
                uplink_mb=history.records[round_index].uplink_bytes / 1e6,
            )

    baseline = curves.get("uncompressed")
    if baseline:
        for label, accuracies in curves.items():
            if label == "uncompressed":
                continue
            gap = baseline[-1] - accuracies[-1]
            result.add_note(f"final-round accuracy gap vs uncompressed for {label}: {gap:+.3f}")
    return result


def final_accuracies(result: ExperimentResult) -> Dict[str, float]:
    """Convenience: final-round accuracy per compressor from a Figure 4 result."""
    finals: Dict[str, float] = {}
    for row in result.rows:
        finals[str(row["compressor"])] = float(row["accuracy"])
    return finals


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_figure4(rounds=3, samples=320).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
