#!/usr/bin/env python
"""Fleet-scale federated simulation on a laptop: scenario presets.

The lazy-client runtime (:mod:`repro.fl.state`) materialises a model only
when a client is actually sampled and every client trains on one reused
model instance, so a 256-client fleet costs one resident model — not 256.  This
example runs the three scenario presets from :mod:`repro.fl.scenarios`
against the same 256-client population:

* **uniform-edge** — steady fleet on cycling 5/10/25/50 Mbps uplinks,
  synchronous FedAvg over 5% of the fleet per round;
* **diurnal** — availability follows a day/night cosine, so the eligible
  pool thins out and recovers; semi-sync rounds cut the night stragglers;
* **flash-crowd** — half the fleet joins at round 2 and leaves at round 6;
  async staleness-weighted mixing absorbs the burst.

After each run the example prints the participation trace plus the
memory-side proof: how many model instances were ever resident, how many
client objects were ever materialised and how many data shards were ever cut.

Run with::

    python examples/fleet_scenarios.py [--clients 256] [--rounds 8]
"""

from __future__ import annotations

import argparse

from repro.core import FedSZCompressor
from repro.experiments import build_federated_setup
from repro.experiments.reporting import render_table
from repro.fl import SerialExecutor, available_scenarios, build_fleet_runtime, get_scenario


def run(clients: int, rounds: int, samples: int) -> None:
    rows = []
    for preset in available_scenarios():
        scenario = get_scenario(preset.name, num_clients=clients, rounds=rounds)
        setup = build_federated_setup(
            "mobilenetv2", "cifar10", num_clients=clients, rounds=rounds,
            samples=samples, local_epochs=1, seed=11,
        )
        runtime = build_fleet_runtime(
            scenario,
            setup.model_fn,
            setup.train_dataset,
            setup.validation_dataset,
            codec=FedSZCompressor(error_bound=1e-2),
            executor=SerialExecutor(),
            seed=11,
            batch_size=16,
        )
        history = runtime.run()
        participation = [record.participating_clients for record in history.records]
        print(
            f"{scenario.name:13s} final accuracy {history.final_accuracy:.3f}  "
            f"participants/round {participation}  "
            f"resident models {runtime.model_pool.created}/{clients}  "
            f"materialized clients {runtime.clients.materialized_count}/{clients}  "
            f"shards cut {runtime.clients.datasets.materialized_count}/{clients}"
        )
        for record in history.records:
            rows.append(
                {
                    "scenario": scenario.name,
                    "round": record.round_index,
                    "participants": record.participating_clients,
                    "accuracy": record.global_accuracy,
                    "round_seconds": record.simulated_round_seconds,
                    "downlink_s": record.downlink_seconds,
                    "dropped": record.dropped_clients,
                }
            )

    print()
    print(render_table(rows))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=256)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--samples", type=int, default=640,
                        help="synthetic dataset size; must leave every client "
                             "at least one training sample after the 80/20 split")
    arguments = parser.parse_args()
    run(arguments.clients, arguments.rounds, arguments.samples)


if __name__ == "__main__":
    main()
