"""Figure 5 — inference accuracy versus FedSZ relative error bound.

A trained model is repeatedly pushed through the FedSZ pipeline at error
bounds 1e-5 … 1e-1 and re-evaluated each time.  The paper's finding — and the
basis of its 1e-2 recommendation — is that accuracy stays within ~0.5 % of
the uncompressed model up to 1e-2 and collapses beyond it.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import ErrorBoundCandidate, FedSZCompressor, select_error_bound
from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import train_tiny_model
from repro.nn import functional as F, inference

DEFAULT_BOUNDS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.5)


def run_figure5(
    model: str = "resnet50",
    dataset: str = "cifar10",
    error_bounds: Sequence[float] = DEFAULT_BOUNDS,
    train_epochs: int = 6,
    samples: int = 500,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate one curve of Figure 5 (accuracy vs REL bound for one model/dataset)."""
    result = ExperimentResult(
        name=f"Figure 5 — accuracy vs error bound ({model} / {dataset})",
        description="Validation accuracy of a trained model after FedSZ round trips at each bound.",
    )
    trained_model, validation = train_tiny_model(
        model, dataset, epochs=train_epochs, samples=samples, seed=seed
    )
    trained_model.eval()
    with inference():
        baseline_logits = trained_model(validation.images)
    baseline_accuracy = F.accuracy(baseline_logits, validation.labels)
    original_state = trained_model.state_dict()
    original_nbytes = sum(v.nbytes for v in original_state.values())
    result.add_row(
        error_bound=0.0,
        accuracy=baseline_accuracy,
        accuracy_drop=0.0,
        ratio=1.0,
        compressed_mb=original_nbytes / 1e6,
        fedsz=False,
    )

    candidates = []
    for bound in sorted(error_bounds):
        codec = FedSZCompressor(error_bound=bound)
        restored = codec.decompress(codec.compress(original_state))
        report = codec.report()
        trained_model.load_state_dict(restored)
        trained_model.eval()
        with inference():
            accuracy = F.accuracy(trained_model(validation.images), validation.labels)
        result.add_row(
            error_bound=bound,
            accuracy=accuracy,
            accuracy_drop=baseline_accuracy - accuracy,
            ratio=report.ratio,
            compressed_mb=report.compressed_nbytes / 1e6,
            fedsz=True,
        )
        candidates.append(
            ErrorBoundCandidate(
                error_bound=bound,
                accuracy=accuracy,
                communication_nbytes=report.compressed_nbytes,
            )
        )
    # Restore the original weights so the trained model object stays usable.
    trained_model.load_state_dict(original_state)

    selection = select_error_bound(candidates, baseline_accuracy, tolerance=0.01)
    result.add_note(
        f"Problem-2 selection picks REL {selection.best.error_bound:g} "
        f"(baseline accuracy {baseline_accuracy:.3f})."
    )
    return result


def accuracy_cliff_bound(result: ExperimentResult, drop_threshold: float = 0.05) -> float:
    """Smallest evaluated bound whose accuracy drop exceeds ``drop_threshold``.

    Returns ``inf`` when no evaluated bound degrades accuracy that much.
    """
    cliffs = [
        float(row["error_bound"])
        for row in result.rows
        if row.get("fedsz") and float(row["accuracy_drop"]) > drop_threshold
    ]
    return min(cliffs) if cliffs else float("inf")


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_figure5(train_epochs=3, samples=300).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
