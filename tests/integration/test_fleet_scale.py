"""Fleet-scale integration: 256 clients on a bounded-memory runtime.

The acceptance claim of the fleet refactor: a 256-client,
``client_fraction=0.05`` run trains on one resident model per training
process (not one per client), and the simulated outcome is bit-identical
between the serial and worker-process executions.
"""

from __future__ import annotations

import pytest

from repro.data import load_dataset
from repro.fl import (
    FederatedRuntime,
    FLConfig,
    ProcessParallelExecutor,
    SerialExecutor,
    build_fleet_runtime,
)
from repro.nn.models import create_model

FLEET_SIZE = 256
WORKERS = 2


@pytest.fixture(scope="module")
def fleet_data():
    # 600 samples -> 450 train after the split: ~2 samples per client.
    full = load_dataset("cifar10", num_samples=600, image_size=8, seed=0)
    return full.split(0.75, seed=1)


@pytest.fixture
def model_fn():
    # mobilenetv2 carries Dropout, so this also proves the per-client
    # stochastic-stream persistence under model pooling.
    return lambda: create_model("mobilenetv2", "tiny", num_classes=10, seed=9)


def _fleet_config():
    return FLConfig(
        num_clients=FLEET_SIZE, rounds=2, batch_size=8, client_fraction=0.05, seed=5
    )


def _deterministic_fields(history):
    return [
        (
            record.global_accuracy,
            record.global_loss,
            record.mean_client_loss,
            record.mean_client_accuracy,
            record.uplink_bytes,
            record.participating_clients,
            tuple((s.client_id, s.train_loss, s.train_accuracy) for s in record.client_stats),
        )
        for record in history.records
    ]


def _run_process(model_fn, train, val):
    runtime = FederatedRuntime(
        model_fn, train, val, _fleet_config(),
        executor=ProcessParallelExecutor(max_workers=WORKERS),
    )
    try:
        return runtime, runtime.run()
    finally:
        runtime.close()


def test_fleet_run_bounds_resident_models_and_stays_deterministic(fleet_data, model_fn):
    train, val = fleet_data

    serial = FederatedRuntime(
        model_fn, train, val, _fleet_config(), executor=SerialExecutor()
    )
    serial_history = serial.run()
    process, process_history = _run_process(model_fn, train, val)

    # ceil(0.05 x 256) = 13 participants per round.
    assert all(r.participating_clients == 13 for r in serial_history.records)

    # The memory ceiling: one trainer thread, one resident model, never the
    # fleet; the parent of a process run trains nothing and builds none.
    assert serial.model_pool.created == serial.model_pool.peak_in_use == 1
    assert serial.model_pool.in_use == 0
    assert process.model_pool.created == 0

    # Lazy materialisation: only sampled clients ever exist as objects.
    sampled = {
        stat.client_id for record in serial_history.records for stat in record.client_stats
    }
    assert serial.clients.materialized_count == len(sampled) < FLEET_SIZE
    assert process.clients.materialized_count == len(sampled)

    # Worker-process execution is bit-identical to the serial loop at fleet scale.
    assert _deterministic_fields(serial_history) == _deterministic_fields(process_history)


def test_fleet_rerun_is_reproducible(fleet_data, model_fn):
    train, val = fleet_data
    _, first = _run_process(model_fn, train, val)
    _, second = _run_process(model_fn, train, val)
    assert _deterministic_fields(first) == _deterministic_fields(second)


def test_flash_crowd_participation_trace(fleet_data, model_fn):
    """The availability schedule shapes per-round participation: the core
    fleet before/after, core + crowd during the flash."""
    train, val = fleet_data
    runtime = build_fleet_runtime(
        "flash-crowd",
        model_fn,
        train,
        val,
        seed=5,
        num_clients=FLEET_SIZE,
        rounds=4,
        batch_size=8,
        executor=SerialExecutor(),
    )
    history = runtime.run(4)
    participation = [record.participating_clients for record in history.records]
    # core = 128 clients -> ceil(0.05 x 128) = 7; full fleet -> 13.
    assert participation == [7, 7, 13, 13]
    assert runtime.model_pool.created == runtime.model_pool.peak_in_use == 1
