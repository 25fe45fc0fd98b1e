"""Acceptance tests for the layered runtime's system-level behaviour.

These cover the two headline claims of the scheduler/executor/transport
refactor: the parallel executor actually buys wall-clock time on a
multi-client round (the links really sleep, as in the paper's MPI + sleep
emulation), and a semi-synchronous round closes at its deadline instead of
waiting for an injected straggler.
"""

from __future__ import annotations

import time

import pytest

from repro.data import load_dataset
from repro.fl import (
    FLConfig,
    FederatedRuntime,
    LinkSpec,
    ParallelExecutor,
    SemiSynchronousScheduler,
    SerialExecutor,
    Transport,
    edge_fleet_specs,
)
from repro.nn.models import create_model


def _sleepy_transport(num_clients: int, latency_seconds: float) -> Transport:
    """Links that really sleep for their modelled latency (paper Section VI-C)."""
    return Transport.heterogeneous(
        [
            LinkSpec(
                bandwidth_mbps=10_000.0,
                latency_seconds=latency_seconds,
                real_sleep=True,
            )
            for _ in range(num_clients)
        ]
    )


def _run_once(executor, data, latency_seconds: float = 0.4):
    # The link sleep must dominate per-client compute even on a slow, loaded
    # CI runner (training is GIL-bound numpy, so in the worst case only the
    # sleeps overlap): speedup >= (8L + X) / (2L + X) where X bundles all the
    # shared serial work (8 training passes, validation, broadcast).  That
    # stays above 1.5x while X <= 10 * L = 4s; X is ~0.5s on a laptop.
    train, val = data
    config = FLConfig(num_clients=8, rounds=1, batch_size=32, seed=4)
    simulation = FederatedRuntime(
        lambda: create_model("mobilenetv2", "tiny", num_classes=10, seed=2),
        train,
        val,
        config,
        codec=None,
        executor=executor,
        transport=_sleepy_transport(8, latency_seconds),
    )
    start = time.perf_counter()
    history = simulation.run(1)
    return time.perf_counter() - start, history


def test_parallel_executor_speedup_on_eight_clients():
    """8 clients / 4 workers must be at least 1.5x faster wall-clock than the
    serial executor, with identical simulated results."""
    full = load_dataset("cifar10", num_samples=320, image_size=8, seed=0)
    data = full.split(0.75, seed=1)

    serial_seconds, serial_history = _run_once(SerialExecutor(), data)
    parallel_seconds, parallel_history = _run_once(ParallelExecutor(max_workers=4), data)

    assert serial_history.records[0].global_accuracy == pytest.approx(
        parallel_history.records[0].global_accuracy, abs=1e-12
    )
    assert serial_history.records[0].uplink_bytes == parallel_history.records[0].uplink_bytes

    speedup = serial_seconds / parallel_seconds
    assert speedup >= 1.5, (
        f"parallel executor speedup {speedup:.2f}x "
        f"(serial {serial_seconds:.2f}s, parallel {parallel_seconds:.2f}s)"
    )


def test_semi_sync_round_does_not_wait_for_straggler():
    """One injected straggler: the round closes at the deadline, aggregates
    everyone else, and the straggler is recorded, not waited for."""
    full = load_dataset("cifar10", num_samples=300, image_size=8, seed=3)
    train, val = full.split(0.8, seed=4)
    config = FLConfig(num_clients=4, rounds=1, batch_size=16, seed=6)
    deadline = 15.0
    simulation = FederatedRuntime(
        lambda: create_model("resnet50", "tiny", num_classes=10, seed=8),
        train,
        val,
        config,
        codec=None,
        scheduler=SemiSynchronousScheduler(deadline_seconds=deadline),
        transport=Transport.heterogeneous(
            edge_fleet_specs(4, bandwidths_mbps=(10.0,), straggler_ids=(3,),
                             straggler_factor=500.0)
        ),
    )
    record = simulation.run_round()

    by_id = {stat.client_id: stat for stat in record.client_stats}
    assert by_id[3].turnaround_seconds > deadline  # it really was a straggler
    assert record.straggler_clients == 1
    assert not by_id[3].aggregated
    assert sum(1 for stat in record.client_stats if stat.aggregated) == 3
    # The round's simulated duration is the deadline — not the straggler's
    # turnaround, which is what a fully synchronous round would have paid.
    assert record.simulated_round_seconds == pytest.approx(deadline)
    assert record.simulated_round_seconds < by_id[3].turnaround_seconds
