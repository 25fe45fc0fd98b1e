"""Experiment harnesses: one module per table/figure of the paper.

Each ``run_*`` function regenerates the corresponding table or figure as an
:class:`~repro.experiments.reporting.ExperimentResult` (rows + notes) that the
benchmarks execute and EXPERIMENTS.md records.  The harnesses accept size
parameters so they can run at laptop scale by default and at paper scale when
given more budget.

| Experiment | Function |
|---|---|
| Table I    | :func:`run_table1`  — EBLC comparison (runtime/throughput/ratio) |
| Table II   | :func:`run_table2`  — lossless codec comparison on metadata |
| Table III  | :func:`run_table3`  — model characteristics |
| Table IV   | :func:`run_table4`  — dataset characteristics |
| Table V    | :func:`run_table5`  — FedSZ compression ratios |
| Figure 2   | :func:`run_figure2` — weights vs scientific data |
| Figure 3   | :func:`run_figure3` — weight distributions |
| Figure 4   | :func:`run_figure4` — accuracy convergence per EBLC |
| Figure 5   | :func:`run_figure5` — accuracy vs error bound |
| Figure 6   | :func:`run_figure6` — epoch-time breakdown |
| Figure 7   | :func:`run_figure7` — communication time vs bound |
| Figure 8   | :func:`run_figure8` — communication time vs bandwidth |
| Figure 9   | :func:`run_figure9` — weak/strong scaling |
| Figure 10  | :func:`run_figure10` — error distributions |
"""

from repro.experiments.figure2_data_characterization import run_figure2
from repro.experiments.figure3_weight_distributions import run_figure3
from repro.experiments.figure4_convergence import final_accuracies, run_figure4
from repro.experiments.figure5_accuracy_vs_bound import accuracy_cliff_bound, run_figure5
from repro.experiments.figure6_epoch_breakdown import run_figure6
from repro.experiments.figure7_comm_time_vs_bound import run_figure7
from repro.experiments.figure8_bandwidth_sweep import crossover_for, default_bandwidths, run_figure8
from repro.experiments.figure9_scaling import calibrate_scaling_inputs, run_figure9
from repro.experiments.figure10_error_distribution import run_figure10
from repro.experiments.reporting import ExperimentResult, render_table
from repro.experiments.table1_eblc_comparison import run_table1
from repro.experiments.table2_lossless_comparison import metadata_payload, run_table2
from repro.experiments.table3_model_characteristics import run_table3
from repro.experiments.table4_dataset_characteristics import run_table4
from repro.experiments.table5_compression_ratios import run_table5
from repro.experiments.workloads import (
    FederatedSetup,
    build_federated_setup,
    model_weight_sample,
    pretrained_like_state_dict,
    train_tiny_model,
)

__all__ = [
    "ExperimentResult",
    "render_table",
    "run_table1",
    "run_table2",
    "metadata_payload",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "final_accuracies",
    "run_figure5",
    "accuracy_cliff_bound",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "crossover_for",
    "default_bandwidths",
    "run_figure9",
    "calibrate_scaling_inputs",
    "run_figure10",
    "FederatedSetup",
    "build_federated_setup",
    "model_weight_sample",
    "pretrained_like_state_dict",
    "train_tiny_model",
]
