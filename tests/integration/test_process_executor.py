"""Acceptance tests for the process-parallel executor and its broadcast.

Three guarantees are pinned here:

* **determinism** — serial and process executors produce bit-identical
  ``TrainingHistory.deterministic_rows()`` (and final weights) on a config that
  stresses every stream: participant sampling, link dropout, mobilenet-style
  stochastic layers and a FedSZ codec;
* **fault isolation** — a :class:`~repro.fl.scenarios.ClientCrash` fired inside
  a worker process surfaces as a dropped update with zero payload bytes, never
  a hung pool, and stays bit-identical across executors;
* **broadcast economy** — the global state is serialized/compressed once a
  round (the parent's counters), and a round that aggregates nothing
  (crash-all) is prepared like any other, with the serial run's outcome.

The >= 2x speedup claim is asserted only on hosts with >= 4 cores (the process
pool cannot beat serial without cores to run on); the overhead bound and all
byte-identity checks run everywhere — same gating as
``tests/integration/test_codec_parallel_speedup.py``.
"""

from __future__ import annotations

import os
import re
import threading
import time
from multiprocessing import queues, reduction

import numpy as np
import pytest

from repro.core import FedSZCompressor
from repro.data import load_dataset
from repro.fl import (
    ClientCrashSchedule,
    FederatedRuntime,
    FLConfig,
    LinkSpec,
    ProcessParallelExecutor,
    SerialExecutor,
    Transport,
)
from repro.fl.scenarios import ClientCrash
from repro.nn.models import create_model

WORKERS = 4
EXECUTORS = ["serial", "process"]


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=160, image_size=8, seed=0)
    return full.split(0.75, seed=1)


def _make_executor(name: str, workers: int = 2):
    if name == "serial":
        return SerialExecutor()
    return ProcessParallelExecutor(max_workers=workers)


def _build_runtime(
    data,
    executor_name: str,
    *,
    rounds: int = 3,
    client_fraction: float = 0.5,
    dropout: float = 0.3,
    client_faults=None,
    codec=None,
) -> FederatedRuntime:
    train, val = data
    return FederatedRuntime(
        lambda: create_model("resnet18", "tiny", num_classes=10, seed=7),
        train,
        val,
        FLConfig(
            num_clients=4,
            rounds=rounds,
            batch_size=16,
            local_epochs=1,
            client_fraction=client_fraction,
            seed=3,
        ),
        codec=codec if codec is not None else FedSZCompressor(error_bound=1e-2),
        executor=_make_executor(executor_name),
        transport=Transport.heterogeneous(
            [
                LinkSpec(bandwidth_mbps=bw, dropout_probability=dropout)
                for bw in (5.0, 10.0, 25.0, 50.0)
            ]
        ),
        client_faults=client_faults,
    )


def _run_all(data, **kwargs):
    """One full run per executor, closed afterwards; returns the runtimes."""
    runtimes = {}
    try:
        for name in EXECUTORS:
            runtime = _build_runtime(data, name, **kwargs)
            runtimes[name] = runtime
            runtime.run()
    finally:
        for runtime in runtimes.values():
            runtime.close()
    return runtimes


def _assert_states_identical(reference: FederatedRuntime, other: FederatedRuntime):
    reference_state = reference.server.global_state()
    other_state = other.server.global_state()
    assert reference_state.keys() == other_state.keys()
    for name in reference_state:
        np.testing.assert_array_equal(reference_state[name], other_state[name], err_msg=name)


def test_serial_and_process_are_bit_identical(data):
    runtimes = _run_all(data)
    reference = runtimes["serial"]
    rows = reference.history.deterministic_rows()
    assert len(rows) == 3
    assert runtimes["process"].history.deterministic_rows() == rows
    _assert_states_identical(reference, runtimes["process"])


def test_client_crash_is_a_dropped_update_not_a_hung_pool(data):
    """Crash every participant of round 1: the round must complete with four
    dropped updates and zero uplink bytes, identically under both executors."""
    faults = {1: [0, 1, 2, 3]}
    runtimes = _run_all(
        data,
        client_fraction=1.0,
        dropout=0.0,
        client_faults=ClientCrashSchedule(faults),
    )
    reference = runtimes["serial"]
    crash_round = reference.history.records[1]
    assert crash_round.participating_clients == 4
    assert crash_round.dropped_clients == 4
    assert crash_round.uplink_bytes == 0
    assert crash_round.uplink_seconds == 0.0
    for stat in crash_round.client_stats:
        assert not stat.delivered
        assert not stat.aggregated
        assert stat.payload_nbytes == 0
        assert stat.train_seconds == 0.0
    # Nothing aggregated, so the global model is unchanged across the round.
    rows = reference.history.deterministic_rows()
    assert rows[1]["global_accuracy"] == rows[0]["global_accuracy"]
    assert runtimes["process"].history.deterministic_rows() == rows
    _assert_states_identical(reference, runtimes["process"])


def test_every_worker_message_pickles_on_the_sending_thread(data, monkeypatch):
    """``multiprocessing.Queue.put`` pickles on a feeder thread that only
    prints what it cannot pickle, so an unpicklable field on a task spec or a
    worker result hangs the round instead of failing it.  Pickling each
    message on its sender first (forked workers inherit the patch) makes that
    an error here; the run ships specs with and without a crash fault, trained
    results and crashed ones."""
    put = queues.Queue.put

    def put_pickled(self, obj, *args, **kwargs):
        reduction.ForkingPickler.dumps(obj)
        return put(self, obj, *args, **kwargs)

    monkeypatch.setattr(queues.Queue, "put", put_pickled)
    runtime = _build_runtime(
        data, "process", rounds=2, client_fraction=1.0, dropout=0.0,
        client_faults=ClientCrashSchedule({1: [0]}),
    )
    try:
        runtime.run()
    finally:
        runtime.close()
    assert [record.dropped_clients for record in runtime.history.records] == [0, 1]


class _LockReportingCodec(FedSZCompressor):
    """A cloneable codec whose report holds a lock (which no pickle can carry)
    while ``poisoned`` is set; workers inherit the flag when the pool forks."""

    poisoned = True

    def compress(self, state_dict):
        payload = super().compress(state_dict)
        if _LockReportingCodec.poisoned:
            self.last_report.guard = threading.Lock()
        return payload


def test_an_unpicklable_worker_result_fails_the_round_instead_of_hanging(data, monkeypatch):
    """A worker result that cannot be pickled becomes an error for its task,
    so the round raises naming the client (rather than waiting forever for a
    message the queue's feeder thread dropped), and the restarted pool runs
    the next round."""
    monkeypatch.setattr(_LockReportingCodec, "poisoned", True)
    runtime = _build_runtime(
        data, "process", rounds=2, client_fraction=1.0, dropout=0.0,
        codec=_LockReportingCodec(error_bound=1e-2),
    )
    outcome = []

    def first_round():
        try:
            runtime.run_round()
        except BaseException as failure:  # handed to the test thread below
            outcome.append(failure)

    try:
        thread = threading.Thread(target=first_round, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "the round hung on an unpicklable worker result"
        (failure,) = outcome
        assert isinstance(failure, RuntimeError)
        assert re.search(r"client \d+ \(task \d+\)", str(failure))
        assert "cannot pickle" in str(failure)
        monkeypatch.setattr(_LockReportingCodec, "poisoned", False)
        record = runtime.run_round()
    finally:
        runtime.close()
    assert record.participating_clients == 4
    assert record.dropped_clients == 0


class _LockedCrash(ClientCrash):
    """A client crash that carries a lock, which no pickle can carry."""

    def __init__(self, round_index: int, client_id: int) -> None:
        super().__init__(round_index, client_id)
        self.guard = threading.Lock()

    def __reduce__(self):
        return (type(self), (self.round_index, self.client_id), {"guard": self.guard})


class _ArmedLockedCrash:
    """Crash client 1 with a :class:`_LockedCrash` while ``armed`` is set."""

    armed = True

    def fault_for(self, round_index: int, client_id: int):
        return _LockedCrash(round_index, client_id) if self.armed and client_id == 1 else None


def test_an_unpicklable_task_spec_fails_the_round_instead_of_hanging(data):
    """The parent pickles every task spec before it puts any, so a spec that
    cannot be pickled raises naming its client (rather than the queue's
    feeder thread dropping it and the round waiting forever for its result),
    the pool is closed, and the next round runs."""
    faults = _ArmedLockedCrash()
    runtime = _build_runtime(
        data, "process", rounds=2, client_fraction=1.0, dropout=0.0, client_faults=faults
    )
    outcome = []

    def first_round():
        try:
            runtime.run_round()
        except BaseException as failure:  # handed to the test thread below
            outcome.append(failure)

    try:
        thread = threading.Thread(target=first_round, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "the round hung on an unpicklable task spec"
        (failure,) = outcome
        assert isinstance(failure, RuntimeError)
        assert re.search(r"client 1 \(task \d+\)", str(failure))
        assert "cannot pickle" in str(failure)
        assert runtime.executor._procs == [] and len(runtime.history) == 0
        faults.armed = False
        record = runtime.run_round()
    finally:
        runtime.close()
    assert record.participating_clients == 4
    assert record.dropped_clients == 0


def test_broadcast_is_prepared_once_per_round(data):
    """Over the crash-all run (round 1 aggregates nothing, so round 2
    broadcasts round 1's state again) the wire buffer is built once a round,
    three times in all, and the outcome is the serial run's."""
    runtime = _build_runtime(
        data,
        "process",
        client_fraction=1.0,
        dropout=0.0,
        client_faults=ClientCrashSchedule({1: [0, 1, 2, 3]}),
    )
    try:
        history = runtime.run()
        cache = runtime.broadcast_cache
        assert (cache.hits, cache.misses, cache.serializations) == (0, 3, 3)
        assert cache.compressions == 0  # compress_downlink is off
    finally:
        runtime.close()

    # The serial executor prepares the same rounds, but never builds a wire
    # buffer (nothing asked for one).
    serial = _build_runtime(
        data,
        "serial",
        client_fraction=1.0,
        dropout=0.0,
        client_faults=ClientCrashSchedule({1: [0, 1, 2, 3]}),
    )
    assert serial.run().deterministic_rows() == history.deterministic_rows()
    assert (serial.broadcast_cache.misses, serial.broadcast_cache.serializations) == (3, 0)


def test_process_executor_refuses_clone_less_codecs(data):
    """A codec whose streams are consumed in call order cannot run
    shared-nothing; binding must fail up front, not corrupt results later."""

    class StatefulCodec:
        def compress(self, state):  # pragma: no cover - never reached
            raise AssertionError

        def decompress(self, payload):  # pragma: no cover - never reached
            raise AssertionError

    train, val = data
    with pytest.raises(ValueError, match="clone"):
        FederatedRuntime(
            lambda: create_model("alexnet", "tiny", num_classes=10, seed=7),
            train,
            val,
            FLConfig(num_clients=2, rounds=1, batch_size=16, seed=3),
            codec=StatefulCodec(),
            executor=ProcessParallelExecutor(max_workers=2),
        )


# ----------------------------------------------------------------------
# Wall-clock claims (mirrors test_codec_parallel_speedup.py's gating)
# ----------------------------------------------------------------------
def _best_of(fn, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _build_speed_runtime(executor) -> FederatedRuntime:
    full = load_dataset("cifar10", num_samples=640, image_size=8, seed=0)
    train, val = full.split(0.75, seed=1)
    return FederatedRuntime(
        lambda: create_model("resnet18", "tiny", num_classes=10, seed=7),
        train,
        val,
        FLConfig(
            num_clients=8, rounds=1, batch_size=16, local_epochs=2, seed=3
        ),
        codec=FedSZCompressor(error_bound=1e-2),
        executor=executor,
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"process-pool speedup needs >= {WORKERS} cores "
    f"(host has {os.cpu_count()}); workers cannot beat serial on fewer",
)
def test_process_round_speedup_at_four_workers():
    """>= 2x round wall-clock with 4 worker processes — the fl_parallel bench
    claim.  The whole client (pure-Python training loop included) runs
    outside the parent's GIL."""
    serial = _build_speed_runtime(SerialExecutor())
    process = _build_speed_runtime(ProcessParallelExecutor(max_workers=WORKERS))
    try:
        # Warm both paths (model materialisation, pool start) before timing.
        serial.run_round()
        process.run_round()
        serial_seconds = _best_of(serial.run_round)
        process_seconds = _best_of(process.run_round)
    finally:
        serial.close()
        process.close()
    speedup = serial_seconds / process_seconds
    assert speedup >= 2.0, (
        f"process-pool speedup {speedup:.2f}x "
        f"(serial {serial_seconds:.3f}s, {WORKERS} workers {process_seconds:.3f}s)"
    )


def test_process_overhead_is_bounded_on_any_host(data):
    """Even with nothing to overlap, dispatch/IPC must not collapse
    throughput: a process round stays within 3x of a serial round."""
    serial = _build_runtime(data, "serial", rounds=1, client_fraction=1.0, dropout=0.0)
    process = _build_runtime(data, "process", rounds=1, client_fraction=1.0, dropout=0.0)
    try:
        serial.run_round()
        process.run_round()  # pool start paid here, outside the timing
        # Minima over several rounds: on a busy 2-core host single process
        # rounds spread 0.17-0.37 s against a steady 0.11 s serial round.
        serial_seconds = _best_of(serial.run_round, repeats=5)
        process_seconds = _best_of(process.run_round, repeats=5)
    finally:
        serial.close()
        process.close()
    assert process_seconds <= serial_seconds * 3.0, (
        f"process-pool overhead too high: serial {serial_seconds:.3f}s, "
        f"process {process_seconds:.3f}s"
    )
