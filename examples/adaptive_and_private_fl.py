#!/usr/bin/env python
"""Beyond the paper: adaptive error bounds and DP-noised FedSZ updates.

Two extensions flagged as future work in the paper's discussion section,
implemented on top of the same federated simulation:

1. **Adaptive error bound** — an :class:`AdaptiveErrorBoundController` watches
   the server's validation accuracy and tightens/relaxes the FedSZ bound
   round by round, trading compression ratio for accuracy automatically.
2. **Differentially-private FedSZ** — the :class:`DPFedSZCompressor` clips
   each client update, adds a calibrated Laplace mechanism, and only then
   compresses, so the release carries a formal per-round ε guarantee that
   compression (post-processing) cannot weaken.

Run with::

    python examples/adaptive_and_private_fl.py [--rounds 6]
"""

from __future__ import annotations

import argparse

from repro.core import AdaptiveErrorBoundController, AdaptiveFedSZCompressor
from repro.experiments import build_federated_setup
from repro.experiments.reporting import render_table
from repro.fl import FederatedRuntime, SerialExecutor
from repro.privacy import DPFedSZCompressor


def run_adaptive(rounds: int, samples: int) -> None:
    print("=== adaptive error-bound control ===")
    setup = build_federated_setup("resnet50", "cifar10", rounds=rounds, samples=samples, seed=21)
    controller = AdaptiveErrorBoundController(
        initial_bound=1e-1,  # start loose on purpose; the controller reins it in
        tolerance=0.03,
        backoff_factor=10.0,
        growth_factor=2.0,
        patience=2,
    )
    codec = AdaptiveFedSZCompressor(controller)
    # Drive the layered runtime directly: adaptive/DP codecs are stateful and
    # have no clone(), so the serial executor codes every upload on them in
    # task order — the run is reproducible, noise draws included.
    runtime = FederatedRuntime(
        setup.model_fn,
        setup.train_dataset,
        setup.validation_dataset,
        setup.config,
        codec=codec,
        executor=SerialExecutor(),
    )
    rows = []
    for _ in range(rounds):
        record = runtime.run_round()
        codec.observe_accuracy(record.global_accuracy)
        rows.append(
            {
                "round": record.round_index,
                "accuracy": record.global_accuracy,
                "bound_used": controller.adjustments[-1].previous_bound,
                "next_bound": controller.current_bound,
                "action": controller.adjustments[-1].action,
                "ratio": record.mean_compression_ratio,
            }
        )
    print(render_table(rows))
    print()


def run_private(rounds: int, samples: int, epsilon: float) -> None:
    print("=== differentially-private FedSZ (Laplace mechanism + compression) ===")
    setup = build_federated_setup("resnet50", "cifar10", rounds=rounds, samples=samples, seed=22)
    codec = DPFedSZCompressor(epsilon_per_round=epsilon, clip_norm=0.5, error_bound=1e-2, seed=5)
    history = FederatedRuntime(
        setup.model_fn, setup.train_dataset, setup.validation_dataset, setup.config, codec=codec
    ).run()

    baseline_setup = build_federated_setup("resnet50", "cifar10", rounds=rounds, samples=samples, seed=22)
    baseline = FederatedRuntime(
        baseline_setup.model_fn,
        baseline_setup.train_dataset,
        baseline_setup.validation_dataset,
        baseline_setup.config,
        codec=None,
        executor=SerialExecutor(),
    ).run()

    print(f"per-round epsilon: {epsilon:g}  (noise scale {codec.noise_scale:.3f}, "
          f"total spent across all client releases: {codec.spent_epsilon:g})")
    print(f"final accuracy:  private {history.final_accuracy:.3f} vs non-private {baseline.final_accuracy:.3f}")
    print(f"uplink traffic:  private {history.total_uplink_bytes / 1e6:.2f} MB vs "
          f"non-private {baseline.total_uplink_bytes / 1e6:.2f} MB")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--samples", type=int, default=480)
    parser.add_argument("--epsilon", type=float, default=50.0)
    arguments = parser.parse_args()
    run_adaptive(arguments.rounds, arguments.samples)
    run_private(arguments.rounds, arguments.samples, arguments.epsilon)


if __name__ == "__main__":
    main()
