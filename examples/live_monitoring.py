#!/usr/bin/env python
"""Watch a federated run live, then mine it for near-violations.

Attaches a :class:`~repro.obs.RunMonitor` to a small FedSZ fleet, serves the
live dashboard from a background stdlib HTTP server while the simulation
runs, and finishes by printing the deterministic error-analysis report —
the same markdown CI attaches to every benchmark job:

1. **Live view** — open the printed URL while the run executes: round
   progress, per-client drop/straggler counts, the codec's compression-ratio
   and error-bound trajectories, and how hard each round pushed against the
   error bound (``/api/status`` serves the raw JSON snapshot).
2. **Post-run analysis** — :func:`repro.obs.build_error_analysis` ranks the
   rounds and tensors that came closest to violating the error bound, the
   worst clients, and the fault timeline.

The monitor is strictly passive: run this with ``--monitor-off`` and the
history is bit-identical.

Run with::

    python examples/live_monitoring.py [--rounds 4] [--port 8700]
"""

from __future__ import annotations

import argparse

from repro.core import FedSZCompressor
from repro.experiments import build_federated_setup
from repro.fl import FederatedRuntime, Transport, edge_fleet_specs
from repro.obs import MonitorServer, RunMonitor, build_error_analysis


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--samples", type=int, default=240)
    parser.add_argument("--error-bound", type=float, default=1e-2)
    parser.add_argument("--port", type=int, default=0,
                        help="dashboard port (0 picks a free one)")
    parser.add_argument("--monitor-off", action="store_true",
                        help="run unmonitored (to check bit-identical output)")
    arguments = parser.parse_args()

    setup = build_federated_setup(
        "alexnet", "cifar10",
        num_clients=arguments.clients,
        rounds=arguments.rounds,
        samples=arguments.samples,
        seed=7,
    )
    transport = Transport.heterogeneous(
        edge_fleet_specs(arguments.clients, straggler_ids=(arguments.clients - 1,))
    )
    monitor = None if arguments.monitor_off else RunMonitor()
    runtime = FederatedRuntime(
        setup.model_fn,
        setup.train_dataset,
        setup.validation_dataset,
        setup.config,
        codec=FedSZCompressor(error_bound=arguments.error_bound),
        transport=transport,
        monitor=monitor,
    )

    if monitor is None:
        history = runtime.run()
    else:
        with MonitorServer(monitor, port=arguments.port) as server:
            print(f"dashboard: {server.url}/   (JSON: {server.url}/api/status)")
            history = runtime.run()
            rounds = monitor.snapshot()["progress"]["rounds_completed"]
            print(f"monitored {rounds} rounds")
    runtime.close()

    print()
    print(build_error_analysis(history))


if __name__ == "__main__":
    main()
