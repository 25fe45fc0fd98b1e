"""Acceptance tests for the layered runtime's system-level behaviour: links
bill their modelled seconds without sleeping through them, and a
semi-synchronous round closes at its deadline instead of waiting for an
injected straggler.
"""

from __future__ import annotations

import time

import pytest

from repro.data import load_dataset
from repro.fl import (
    FLConfig,
    FederatedRuntime,
    LinkSpec,
    ProcessParallelExecutor,
    SemiSynchronousScheduler,
    SerialExecutor,
    Transport,
    edge_fleet_specs,
)
from repro.nn.models import create_model

#: Modelled latency of every link: longer than a whole tiny round takes, so
#: one sleep through it would show in the wall clock.
LATENCY_SECONDS = 10.0


@pytest.mark.parametrize(
    "executor_fn",
    [SerialExecutor, lambda: ProcessParallelExecutor(max_workers=2)],
    ids=["serial", "process"],
)
def test_links_bill_their_latency_without_sleeping(executor_fn):
    """The paper emulated link bandwidth with sleeps (Section VI-C); here the
    round records each client's modelled link seconds and never waits them."""
    full = load_dataset("cifar10", num_samples=160, image_size=8, seed=0)
    train, val = full.split(0.75, seed=1)
    runtime = FederatedRuntime(
        lambda: create_model("mobilenetv2", "tiny", num_classes=10, seed=2),
        train,
        val,
        FLConfig(num_clients=4, rounds=1, batch_size=32, seed=4),
        codec=None,
        executor=executor_fn(),
        transport=Transport.heterogeneous([LinkSpec(latency_seconds=LATENCY_SECONDS)] * 4),
    )
    try:
        start = time.perf_counter()
        record = runtime.run_round()
        elapsed = time.perf_counter() - start
    finally:
        runtime.close()
    assert all(
        stat.turnaround_seconds > LATENCY_SECONDS for stat in record.client_stats
    ), record.client_stats
    assert record.simulated_round_seconds > LATENCY_SECONDS
    assert elapsed < LATENCY_SECONDS


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
