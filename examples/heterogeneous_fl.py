#!/usr/bin/env python
"""Heterogeneous links, stragglers and round schedulers — the layered runtime.

The paper's system-level claim (Figures 7-9) is about wall-clock behaviour
across *many clients with different links*.  This example builds an edge
fleet where every client has its own bandwidth/latency and one client is a
heavy straggler (500x slower transfers by default), then runs the same
federated workload under the three round strategies of
:mod:`repro.fl.scheduler`:

* **sync** — classic FedAvg; the round lasts as long as its slowest client;
* **semi-sync** — a deadline cuts the straggler, so rounds close on time at
  the cost of aggregating one fewer update;
* **async** — updates are mixed one by one in arrival order with
  staleness-decayed weights; the straggler still contributes, just late and
  with a smaller weight.

Clients train on two worker processes (:class:`~repro.fl.ProcessParallelExecutor`).

Run with::

    python examples/heterogeneous_fl.py [--rounds 4] [--straggler-factor 20]
"""

from __future__ import annotations

import argparse

from repro.core import FedSZCompressor
from repro.experiments import build_federated_setup
from repro.experiments.reporting import render_table
from repro.fl import (
    FederatedRuntime,
    ProcessParallelExecutor,
    Transport,
    edge_fleet_specs,
    get_scheduler,
)


def run(rounds: int, samples: int, straggler_factor: float, deadline: float) -> None:
    specs = edge_fleet_specs(
        4,
        bandwidths_mbps=(5.0, 10.0, 25.0, 50.0),
        latency_seconds=0.02,
        straggler_ids=(1,),
        straggler_factor=straggler_factor,
    )
    print("edge fleet:")
    for client_id, spec in enumerate(specs):
        tag = "  <-- straggler" if spec.straggler_factor > 1 else ""
        print(
            f"  client {client_id}: {spec.bandwidth_mbps:g} Mbps, "
            f"{1e3 * spec.latency_seconds:.0f} ms latency{tag}"
        )
    print()

    rows = []
    for name in ("sync", "semi-sync", "async"):
        kwargs = {"deadline_seconds": deadline} if name == "semi-sync" else {}
        setup = build_federated_setup(
            "resnet50", "cifar10", rounds=rounds, samples=samples, seed=11
        )
        runtime = FederatedRuntime(
            setup.model_fn,
            setup.train_dataset,
            setup.validation_dataset,
            setup.config,
            codec=FedSZCompressor(error_bound=1e-2),
            scheduler=get_scheduler(name, **kwargs),
            executor=ProcessParallelExecutor(max_workers=2),
            transport=Transport.heterogeneous(specs),
        )
        try:
            history = runtime.run()
        finally:
            runtime.close()
        for record in history.records:
            rows.append(
                {
                    "scheduler": name,
                    "round": record.round_index,
                    "accuracy": record.global_accuracy,
                    "round_seconds": record.simulated_round_seconds,
                    "stragglers_cut": record.straggler_clients,
                    "aggregated": sum(1 for s in record.client_stats if s.aggregated),
                }
            )
        total = history.total_simulated_seconds
        print(
            f"{name:10s} final accuracy {history.final_accuracy:.3f}  "
            f"total simulated time {total:7.1f}s  "
            f"stragglers cut {history.total_straggler_clients}"
        )

    print()
    print(render_table(rows))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--samples", type=int, default=400)
    parser.add_argument("--straggler-factor", type=float, default=500.0)
    parser.add_argument("--deadline", type=float, default=5.0,
                        help="semi-sync deadline in simulated seconds; the "
                             "default sits well above a healthy client's "
                             "turnaround and well below the straggler's")
    arguments = parser.parse_args()
    run(arguments.rounds, arguments.samples, arguments.straggler_factor, arguments.deadline)


if __name__ == "__main__":
    main()
