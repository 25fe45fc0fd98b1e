#!/usr/bin/env python
"""Federated CIFAR-10 simulation with and without FedSZ.

Reproduces the paper's core experiment at laptop scale: FedAvg over four
clients on a synthetic CIFAR-10 stand-in, once with raw updates and once with
FedSZ-compressed updates (SZ2 @ REL 1e-2), on an emulated 10 Mbps uplink.
The script reports per-round accuracy, uplink traffic and the simulated
communication time of both runs.  Clients train on worker processes
(:class:`~repro.fl.ProcessParallelExecutor`); pass ``--serial`` to fall back
to the sequential executor (the simulated numbers are identical either way —
only the wall-clock changes).

Run with::

    python examples/fl_cifar10_simulation.py [--rounds 6] [--model resnet50]
"""

from __future__ import annotations

import argparse

from repro.core import FedSZCompressor
from repro.experiments import build_federated_setup
from repro.experiments.reporting import render_table
from repro.fl import FederatedRuntime, ProcessParallelExecutor, SerialExecutor


def run(model: str, rounds: int, samples: int, error_bound: float, workers: int) -> None:
    rows = []
    histories = {}
    for label, codec in (
        ("uncompressed", None),
        (f"fedsz (sz2 @ {error_bound:g})", FedSZCompressor(error_bound=error_bound)),
    ):
        setup = build_federated_setup(
            model_name=model, dataset_name="cifar10", rounds=rounds, samples=samples, seed=7
        )
        runtime = FederatedRuntime(
            setup.model_fn,
            setup.train_dataset,
            setup.validation_dataset,
            setup.config,
            codec=codec,
            executor=SerialExecutor() if workers <= 1 else ProcessParallelExecutor(workers),
        )
        try:
            history = runtime.run()
        finally:
            runtime.close()
        histories[label] = history
        for record in history.records:
            rows.append(
                {
                    "configuration": label,
                    "round": record.round_index,
                    "accuracy": record.global_accuracy,
                    "uplink_mb": record.uplink_bytes / 1e6,
                    "uplink_seconds": record.uplink_seconds,
                    "ratio": record.mean_compression_ratio,
                }
            )

    print(render_table(rows))
    print()
    raw = histories["uncompressed"]
    fedsz = histories[f"fedsz (sz2 @ {error_bound:g})"]
    print(f"final accuracy:   raw {raw.final_accuracy:.3f} vs fedsz {fedsz.final_accuracy:.3f}")
    print(
        f"total uplink:     raw {raw.total_uplink_bytes / 1e6:.1f} MB vs "
        f"fedsz {fedsz.total_uplink_bytes / 1e6:.1f} MB "
        f"({raw.total_uplink_bytes / max(fedsz.total_uplink_bytes, 1):.1f}x reduction)"
    )
    print(
        f"total uplink time: raw {raw.total_uplink_seconds:.1f}s vs "
        f"fedsz {fedsz.total_uplink_seconds + fedsz.total_compression_seconds:.1f}s "
        "(including compression)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="resnet50", choices=["resnet50", "mobilenetv2", "alexnet"])
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--error-bound", type=float, default=1e-2)
    parser.add_argument("--workers", type=int, default=2, help="client worker processes")
    parser.add_argument("--serial", action="store_true", help="force the serial executor")
    arguments = parser.parse_args()
    workers = 1 if arguments.serial else arguments.workers
    run(arguments.model, arguments.rounds, arguments.samples, arguments.error_bound, workers)


if __name__ == "__main__":
    main()
