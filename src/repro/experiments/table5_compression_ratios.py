"""Table V — FedSZ state-dict compression ratios (models × datasets × bounds).

The paper reports the end-to-end FedSZ compression ratio — the whole client
update, i.e. lossy weights plus lossless metadata plus framing — for the
three models, three datasets and relative error bounds 1e-1 … 1e-4, finding
5.55–12.61× at the recommended 1e-2.

The harness compresses trained-like paper-scale state dicts (optionally
sub-sampled per tensor for speed) through the real FedSZ pipeline.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import FedSZConfig, compress_state_dict
from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import PAPER_DATASETS, PAPER_MODELS, pretrained_like_state_dict

DEFAULT_BOUNDS = (1e-1, 1e-2, 1e-3, 1e-4)


def run_table5(
    models: Sequence[str] = PAPER_MODELS,
    datasets: Sequence[str] = PAPER_DATASETS,
    error_bounds: Sequence[float] = DEFAULT_BOUNDS,
    lossy_compressor: str = "sz2",
    max_elements_per_tensor: Optional[int] = 300_000,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Table V.

    ``max_elements_per_tensor`` caps the per-tensor sample so the full sweep
    stays fast; pass ``None`` to compress the complete state dicts.
    """
    result = ExperimentResult(
        name="Table V — FedSZ compression ratios",
        description="Whole-state-dict compression ratio per model, dataset and REL bound.",
    )
    for model in models:
        for dataset in datasets:
            state = pretrained_like_state_dict(model, dataset, max_elements_per_tensor, seed)
            for bound in error_bounds:
                config = FedSZConfig(error_bound=bound, lossy_compressor=lossy_compressor)
                _, report = compress_state_dict(state, config)
                result.add_row(
                    model=model,
                    dataset=dataset,
                    error_bound=bound,
                    ratio=report.ratio,
                    lossy_ratio=report.lossy_ratio,
                    lossless_ratio=report.lossless_ratio,
                    original_mb=report.original_nbytes / 1e6,
                    compressed_mb=report.compressed_nbytes / 1e6,
                )

    recommended = [row for row in result.rows if row["error_bound"] == 1e-2]
    if recommended:
        ratios = [row["ratio"] for row in recommended]
        result.add_note(
            f"ratio range at the recommended 1e-2 bound: {min(ratios):.2f}x - {max(ratios):.2f}x "
            "(paper: 5.55x - 12.61x)"
        )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_table5(max_elements_per_tensor=100_000).to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
