"""Executor bit-identity under pathological thread scheduling.

``sys.setswitchinterval(1e-5)`` makes the interpreter preempt threads roughly
every 10 microseconds — hundreds of times more often than the 5 ms default —
so any latent race in the serial executor's upload lanes (the in-process
threads that code a round's uploads, each on its own codec clone), their
last-report hand-back or the process executor's parent-side queue threads
gets thousands of extra chances to reorder operations per round.  The
acceptance bar is unchanged: serial at one lane, serial at four lanes and
the process executor must stay bit-identical on ``deterministic_rows()`` and
final weights — and so must serial at one, two and four lanes when the
helper lanes code each upload while the caller trains the next client (the
streamed schedule, which SZ2's lowered lane threshold switches on here).
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.compression import SZ2Compressor
from repro.core import FedSZCompressor
from repro.data import load_dataset
from repro.fl import (
    FederatedRuntime,
    FLConfig,
    LinkSpec,
    ProcessParallelExecutor,
    SerialExecutor,
    Transport,
)
from repro.nn.models import create_model

STRESS_SWITCH_INTERVAL = 1e-5


@pytest.fixture(autouse=True)
def aggressive_thread_switching():
    """Preempt threads every ~10us for the duration of each test."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(STRESS_SWITCH_INTERVAL)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=160, image_size=8, seed=0)
    return full.split(0.75, seed=1)


def _build_runtime(data, executor) -> FederatedRuntime:
    train, val = data
    return FederatedRuntime(
        lambda: create_model("resnet18", "tiny", num_classes=10, seed=7),
        train,
        val,
        FLConfig(
            num_clients=4,
            rounds=3,
            batch_size=16,
            local_epochs=1,
            client_fraction=1.0,
            seed=3,
        ),
        codec=FedSZCompressor(error_bound=1e-2),
        executor=executor,
        transport=Transport.heterogeneous(
            [
                LinkSpec(bandwidth_mbps=bw, dropout_probability=0.3)
                for bw in (5.0, 10.0, 25.0, 50.0)
            ]
        ),
    )


def _run(data, executor):
    runtime = _build_runtime(data, executor)
    try:
        runtime.run()
        return runtime.history.deterministic_rows(), runtime.server.global_state()
    finally:
        runtime.close()


def _run_on_lanes(data, lanes, monkeypatch):
    """A serial run whose uploads code on ``lanes`` lanes (``pool_width``
    reads the host's cores)."""
    monkeypatch.setattr(os, "cpu_count", lambda: lanes)
    return _run(data, SerialExecutor())


def test_serial_lanes_are_bit_identical_under_stress(data, monkeypatch):
    """One lane == four lanes under ~10us preemption, rows and final weights."""
    one_rows, one_state = _run_on_lanes(data, 1, monkeypatch)
    four_rows, four_state = _run_on_lanes(data, 4, monkeypatch)
    assert four_rows == one_rows
    assert four_state.keys() == one_state.keys()
    for name in one_state:
        np.testing.assert_array_equal(one_state[name], four_state[name], err_msg=name)


def test_streamed_lanes_are_bit_identical_under_stress(data, monkeypatch):
    """Helper lanes coding behind training: one == two == four lanes under
    ~10us preemption, rows and final weights."""
    monkeypatch.setattr(SZ2Compressor, "pool_min_values", 1)
    one_rows, one_state = _run_on_lanes(data, 1, monkeypatch)
    for lanes in (2, 4):
        rows, state = _run_on_lanes(data, lanes, monkeypatch)
        assert rows == one_rows, lanes
        assert state.keys() == one_state.keys()
        for name in one_state:
            np.testing.assert_array_equal(one_state[name], state[name], err_msg=name)


def test_process_executor_is_bit_identical_under_stress(data):
    """Serial == process pool while the parent thrashes its threads.

    The parent side of the process executor is itself threaded (queue feeder
    threads, the watchdog), so the tight switch interval stresses the
    parent/worker protocol too, not just the in-process executor.
    """
    serial_rows, serial_state = _run(data, SerialExecutor())
    process_rows, process_state = _run(data, ProcessParallelExecutor(max_workers=2))
    assert process_rows == serial_rows
    for name in serial_state:
        np.testing.assert_array_equal(serial_state[name], process_state[name], err_msg=name)


def test_repeated_lane_runs_are_stable_under_stress(data, monkeypatch):
    """Two stressed four-lane runs agree with each other (no flaky divergence)."""
    first_rows, first_state = _run_on_lanes(data, 4, monkeypatch)
    second_rows, second_state = _run_on_lanes(data, 4, monkeypatch)
    assert first_rows == second_rows
    for name in first_state:
        np.testing.assert_array_equal(first_state[name], second_state[name], err_msg=name)
