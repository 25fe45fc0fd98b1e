"""One upload path, two executors: parity on the inputs the upload twins
used to handle separately, and typed failure of the process pool.

* **parity** — links with a Raspberry-Pi-5 device profile *and* dropout, with
  corrupted uploads and client crashes scheduled into the same run: serial
  and process executors agree on ``deterministic_rows()``, final
  weights and — deterministic once device-modelled — every client's codec
  seconds, wire bytes and delivery flag;
* **frame check** — the server-side checksum reject of a corrupted upload
  runs under every executor, not just the in-process ones;
* **failure paths** — a poisoned task or a killed worker ends the round in a
  ``RuntimeError`` with the pool reaped, never a hang, and the next round
  restarts the pool and completes;
* **serial lanes** — the serial executor codes a round's uploads on one lane
  per core: histories, weights and codec seconds agree at 1, 2 and 4 lanes,
  whether the helper lanes code behind training or after it;
  a codec without ``clone()`` stays on the caller, in task order; a lane's
  error is the serial error with no thread left behind;
* **the streamed schedule** — a helper lane's codec error while the caller
  still trains is raised after training as the lowest-index error, a
  training error on the caller is raised after every helper has joined, and
  the gate streams AlexNet-tiny's SZ2 uploads but not MobileNetV2-tiny's;
* **no multiplied pools** — the codec's tensor pool stays off on serial lanes
  and inside process workers, and process workers pin BLAS to one thread;
* **the evaluation pool** — the 130-sample validation split is three batches
  of the default ``eval_batch_size``, so every parity run's server evaluates
  on two lanes, in the parent, whichever executor ran the clients.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.compression import SZ2Compressor, SZxCompressor
from repro.core import FedSZCompressor
from repro.data import load_dataset
from repro.fl import (
    ClientCrashSchedule,
    FederatedRuntime,
    FLClient,
    FLConfig,
    LinkSpec,
    ProcessParallelExecutor,
    SerialExecutor,
    Transport,
)
from repro.fl.executor import _openblas_threads
from repro.fl.scenarios import CorruptedUploadSchedule
from repro.nn.models import create_model
from repro.privacy import DPFedSZCompressor

EXECUTORS = ["serial", "process"]
#: A healthy 6-client round of the tiny model takes well under a second; a
#: failed round additionally waits out one 1 s liveness poll.  Anything near
#: this ceiling is a hang.
FAILURE_CEILING_SECONDS = 30.0


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=310, image_size=8, seed=0)
    return full.split(0.58, seed=1)  # 180 train, 130 validation


def _make_executor(name: str):
    if name == "serial":
        return SerialExecutor()
    return ProcessParallelExecutor(max_workers=2)


class _Faults:
    """First fault any of the given schedules has for a (round, client)."""

    def __init__(self, *schedules) -> None:
        self._schedules = schedules

    def fault_for(self, round_index: int, client_id: int):
        for schedule in self._schedules:
            fault = schedule.fault_for(round_index, client_id)
            if fault is not None:
                return fault
        return None


def _build_runtime(
    data, executor, codec, client_faults=None, client_fraction=1.0, model="resnet18", **link
) -> FederatedRuntime:
    train, val = data
    return FederatedRuntime(
        lambda: create_model(model, "tiny", num_classes=10, seed=7),
        train,
        val,
        FLConfig(
            num_clients=6, rounds=3, batch_size=16, local_epochs=1,
            client_fraction=client_fraction, seed=3,
        ),
        codec=codec,
        executor=executor,
        transport=Transport.heterogeneous(
            [LinkSpec(bandwidth_mbps=bw, **link) for bw in (2.0, 5.0, 10.0, 25.0, 50.0, 100.0)]
        ),
        client_faults=client_faults,
    )


def _live_helpers() -> int:
    """Lane helper threads alive right now (:func:`repro.utils.pools.run_lanes`
    names them ``lane-<n>``)."""
    return sum(thread.name.startswith("lane-") for thread in threading.enumerate())


def _patch_training(monkeypatch, hook=lambda position: None) -> dict:
    """Call ``hook(position)`` as each client starts training, ``position``
    counting the trainings since the patch; return the map from each update's
    ``state_dict`` (by id) to its position, filled in as clients finish."""
    positions = {}
    counter = itertools.count()
    train = FLClient.train

    def hooked(self, *args, **kwargs):
        position = next(counter)
        hook(position)
        update = train(self, *args, **kwargs)
        positions[id(update.state_dict)] = position
        return update

    monkeypatch.setattr(FLClient, "train", hooked)
    return positions


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
def _fedsz():
    return FedSZCompressor(error_bound=1e-2)


@pytest.mark.parametrize(
    ("codec_fn", "streamed"),
    [(lambda: None, False), (_fedsz, False), (_fedsz, True)],
    ids=["raw", "fedsz", "fedsz-streamed"],
)
def test_device_dropout_corruption_and_crash_parity(data, codec_fn, streamed, monkeypatch):
    """``fedsz-streamed`` lowers SZ2's lane threshold so that the tiny
    model's uploads pass the gate: the serial runs on two and four lanes code
    them on helper lanes while the caller trains (a helper is alive at every
    training), the one-lane run after training, and all of them agree."""
    if streamed:
        monkeypatch.setattr(SZ2Compressor, "pool_min_values", 1)
    corrupted = {0: [1], 2: [4, 5]}
    crashed = {1: [2, 3], 2: [0]}
    faults = _Faults(CorruptedUploadSchedule(corrupted), ClientCrashSchedule(crashed))
    helpers = []
    _patch_training(monkeypatch, lambda position: helpers.append(_live_helpers()))

    def run(executor_name, lanes=2):
        monkeypatch.setattr(os, "cpu_count", lambda: lanes)
        helpers.clear()
        runtime = _build_runtime(
            data, _make_executor(executor_name), codec_fn(), faults,
            device="raspberry-pi-5", dropout_probability=0.4,
        )
        try:
            runtime.run()
        finally:
            runtime.close()
        if executor_name == "serial":
            assert len(helpers) == 15  # every training the caller ran
            assert set(helpers) == {lanes - 1 if streamed and lanes > 1 else 0}, lanes
        return runtime

    def client_rows(runtime):
        return [
            (record.round_index, s.client_id, s.compress_seconds, s.decompress_seconds,
             s.payload_nbytes, s.delivered)
            for record in runtime.history.records
            for s in record.client_stats
        ]

    reference = run("serial")
    compressed = reference.codec is not None
    outcomes = set()
    for row in client_rows(reference):
        round_index, client_id, compress_s, decompress_s, nbytes, delivered = row
        if client_id in crashed.get(round_index, ()):
            outcomes.add("crashed")
            assert (compress_s, decompress_s, nbytes, delivered) == (0.0, 0.0, 0, False)
            continue
        assert nbytes > 0
        assert (compress_s > 0) is compressed  # Table-I model, not a measurement
        assert (decompress_s > 0) is (compressed and delivered)
        if client_id in corrupted.get(round_index, ()):
            outcomes.add("corrupted")
            assert not delivered
        else:
            outcomes.add("delivered" if delivered else "dropped")
    assert outcomes == {"crashed", "corrupted", "delivered", "dropped"}

    for executor_name, lanes in (("process", 2), ("serial", 1), ("serial", 4)):
        other = run(executor_name, lanes)
        if lanes == 2:
            assert len(other.server._replicas) == len(reference.server._replicas) == 1
        assert other.history.deterministic_rows() == reference.history.deterministic_rows()
        assert client_rows(other) == client_rows(reference), (executor_name, lanes)
        for name, value in reference.server.global_state().items():
            np.testing.assert_array_equal(value, other.server.global_state()[name], err_msg=name)


@pytest.mark.parametrize("executor_name", EXECUTORS)
def test_server_frame_check_runs_under_every_executor(data, executor_name, monkeypatch):
    """Make the frame check *accept* the truncated frame: every executor must
    notice, which proves each of them actually runs it."""
    monkeypatch.setattr("repro.fl.transport.unframe_checksummed", lambda magic, data: data)
    runtime = _build_runtime(
        data, _make_executor(executor_name), FedSZCompressor(error_bound=1e-2),
        CorruptedUploadSchedule({0: [2]}),
    )
    try:
        with pytest.raises(RuntimeError, match="passed the frame check"):
            runtime.run_round()
    finally:
        runtime.close()


# ----------------------------------------------------------------------
# Process-pool failure paths
# ----------------------------------------------------------------------
class _SabotagedCodec(FedSZCompressor):
    """FedSZ whose ``compress`` misbehaves while the class-level switch is set.

    Worker codecs are clones made after the fork, so the switch is read from
    the class (inherited by workers at pool start), not from an instance.
    """

    sabotage = None  # None | "raise" | "exit"

    def compress(self, state_dict):
        cls = type(self)
        if cls.sabotage == "raise":
            raise ValueError("poisoned compress")
        if cls.sabotage == "exit" and multiprocessing.current_process().name == "fl-worker-0":
            os._exit(17)
        return super().compress(state_dict)


@pytest.fixture
def sabotage():
    def arm(mode):
        _SabotagedCodec.sabotage = mode

    yield arm
    _SabotagedCodec.sabotage = None


def _run_round_bounded(runtime):
    """``runtime.run_round()`` on a helper thread, so that a hang fails the
    test at the ceiling instead of wedging the suite."""
    outcome = []

    def target():
        try:
            outcome.append((runtime.run_round(), None))
        except BaseException as error:  # re-raised on the test thread below
            outcome.append((None, error))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(FAILURE_CEILING_SECONDS)
    assert outcome, f"run_round() still running after {FAILURE_CEILING_SECONDS} s"
    record, error = outcome[0]
    if error is not None:
        raise error
    return record


def _assert_pool_reaped(executor) -> None:
    assert executor._procs == []
    assert multiprocessing.active_children() == []


def test_worker_exception_is_a_typed_error_and_the_pool_restarts(data, sabotage):
    executor = ProcessParallelExecutor(max_workers=2)
    runtime = _build_runtime(data, executor, _SabotagedCodec(error_bound=1e-2))
    try:
        sabotage("raise")
        with pytest.raises(RuntimeError) as failure:
            _run_round_bounded(runtime)
        message = str(failure.value)
        assert "client 0 (task 0)" in message and "client 5 (task 5)" in message
        assert "Traceback" in message and "ValueError: poisoned compress" in message
        _assert_pool_reaped(executor)
        assert len(runtime.history) == 0

        sabotage(None)
        record = _run_round_bounded(runtime)
        assert record.round_index == 0
        assert record.participating_clients == 6 and record.dropped_clients == 0
        assert len(executor._procs) == 2  # a fresh pool
    finally:
        runtime.close()
    assert multiprocessing.active_children() == []


def test_killed_worker_is_a_typed_error_not_a_hang(data, sabotage):
    executor = ProcessParallelExecutor(max_workers=2)
    runtime = _build_runtime(data, executor, _SabotagedCodec(error_bound=1e-2))
    try:
        sabotage("exit")
        with pytest.raises(RuntimeError, match=r"died mid-round: fl-worker-0"):
            _run_round_bounded(runtime)
        _assert_pool_reaped(executor)

        sabotage(None)
        assert _run_round_bounded(runtime).participating_clients == 6
    finally:
        runtime.close()
    assert multiprocessing.active_children() == []


def test_bound_utilization_is_error_over_the_codec_bound_on_every_executor(data):
    """``tensor_bound_utilization`` is ``max|a - b|`` over the bound the codec
    enforced — the REL bound of the tensor's float64 copy — per lossy tensor,
    maximised over the round's delivered updates; pure arithmetic, so serial
    and process runs agree to the bit."""
    from repro.compression.base import ErrorBoundMode, resolve_error_bound

    def run(executor_name):
        runtime = _build_runtime(
            data, _make_executor(executor_name), FedSZCompressor(error_bound=1e-2)
        )
        rounds = []  # per round: the executor's results, as finish_round got them
        finish_round = runtime.finish_round

        def recording_finish_round(context, results, *args, **kwargs):
            rounds.append(results)
            return finish_round(context, results, *args, **kwargs)

        runtime.finish_round = recording_finish_round
        try:
            runtime.run(rounds=2)
        finally:
            runtime.close()
        return runtime.history.records, rounds

    records, rounds = run("serial")
    assert len(records) == len(rounds) == 2
    for record, results in zip(records, rounds):
        expected = {}
        for result in results:
            assert result.delivered
            for name in result.stats.report.per_tensor_ratio:
                sent = np.asarray(result.update.state_dict[name])
                got = np.asarray(result.state[name])
                assert sent.dtype == np.float32
                error = float(np.abs(sent.astype(np.float64) - got.astype(np.float64)).max())
                bound = resolve_error_bound(sent.astype(np.float64), 1e-2, ErrorBoundMode.REL)
                # The codec bounds the float64 reconstruction; storing it as
                # float32 may add half an ulp of the largest magnitude.
                assert error <= bound + float(np.abs(sent).max()) * 2.0**-23, name
                expected[name] = max(expected.get(name, 0.0), error / bound)
        assert expected and record.tensor_bound_utilization == expected
    other_records, _ = run("process")
    assert [r.tensor_bound_utilization for r in other_records] == [
        r.tensor_bound_utilization for r in records
    ]


# ----------------------------------------------------------------------
# Executor workers and the codec's own pools
# ----------------------------------------------------------------------
class _BlasProbe(FedSZCompressor):
    """FedSZ whose reports also carry the OpenBLAS width they compressed under."""

    def compress(self, state_dict):
        payload = super().compress(state_dict)
        self.last_report.blas_threads = _openblas_threads("get")
        return payload


def _run_recording_reports(runtime, rounds=2):
    """Run ``rounds`` rounds; return every client's upload report."""
    reports = []
    finish_round = runtime.finish_round

    def recording_finish_round(context, results, *args, **kwargs):
        reports.extend(result.stats.report for result in results)
        return finish_round(context, results, *args, **kwargs)

    runtime.finish_round = recording_finish_round
    try:
        runtime.run(rounds=rounds)
    finally:
        runtime.close()
    return reports


def test_the_codec_pool_stays_off_inside_executor_workers(data, monkeypatch):
    """With every SZx tensor over the pool threshold, only a serial round's
    single upload compresses on the tensor pool: two or more uploads run on
    the serial executor's lanes, and process workers compress serially — the
    pools never multiply — and every run agrees."""
    monkeypatch.setattr(SZxCompressor, "pool_min_values", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def run(executor_name, client_fraction=1.0):
        codec = FedSZCompressor(error_bound=1e-2, lossy_compressor="szx", max_codec_workers=2)
        runtime = _build_runtime(
            data, _make_executor(executor_name), codec, client_fraction=client_fraction
        )
        return runtime, _run_recording_reports(runtime)

    reference, reports = run("serial")
    assert {report.codec_workers for report in reports} == {1}
    single, reports = run("serial", client_fraction=0.1)
    assert len(reports) == 2 and {report.codec_workers for report in reports} == {2}
    other, reports = run("process")
    assert {report.codec_workers for report in reports} == {1}
    assert other.history.deterministic_rows() == reference.history.deterministic_rows()
    for name, value in reference.server.global_state().items():
        np.testing.assert_array_equal(value, other.server.global_state()[name], err_msg=name)
    other, reports = run("process", client_fraction=0.1)
    assert {report.codec_workers for report in reports} == {1}
    assert other.history.deterministic_rows() == single.history.deterministic_rows()


# ----------------------------------------------------------------------
# Serial lanes
# ----------------------------------------------------------------------
class _CallLog(DPFedSZCompressor):
    """DP codec that logs the thread and the input of every compress."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.calls = []

    def compress(self, state_dict):
        self.calls.append((threading.current_thread(), state_dict))
        return super().compress(state_dict)


def test_a_codec_without_clone_stays_on_the_caller_in_task_order(data, monkeypatch):
    """The DP codec's noise stream is consumed in call order, so its uploads
    never take a lane: every compress runs on the calling thread, in task
    order, and the run equals a one-lane run."""
    crashed = ClientCrashSchedule({0: [2]})

    def run(lanes):
        monkeypatch.setattr(os, "cpu_count", lambda: lanes)
        codec = _CallLog(epsilon_per_round=10.0, seed=4)
        runtime = _build_runtime(data, SerialExecutor(), codec, crashed)
        uploads = []
        finish_round = runtime.finish_round

        def recording_finish_round(context, results, *args, **kwargs):
            uploads.extend(r.update.state_dict for r in results if r.stats.report is not None)
            return finish_round(context, results, *args, **kwargs)

        runtime.finish_round = recording_finish_round
        try:
            runtime.run(rounds=2)
        finally:
            runtime.close()
        return runtime, codec, uploads

    runtime, codec, uploads = run(2)
    assert len(uploads) == 11
    assert [thread for thread, _ in codec.calls] == [threading.main_thread()] * 11
    assert all(sent is logged for sent, (_, logged) in zip(uploads, codec.calls, strict=True))
    one_lane, _, _ = run(1)
    assert runtime.history.deterministic_rows() == one_lane.history.deterministic_rows()


def test_a_lane_error_is_the_serial_error_with_no_thread_left(data, sabotage, monkeypatch):
    """A codec error on the lanes surfaces as the one-lane path raises it,
    every lane thread is gone, and the next round runs."""
    errors = []
    for lanes in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda lanes=lanes: lanes)
        runtime = _build_runtime(data, SerialExecutor(), _SabotagedCodec(error_bound=1e-2))
        threads = threading.active_count()
        sabotage("raise")
        with pytest.raises(ValueError) as failure:
            runtime.run_round()
        assert threading.active_count() == threads
        assert len(runtime.history) == 0
        errors.append((type(failure.value), str(failure.value)))
        sabotage(None)
        assert runtime.run_round().participating_clients == 6
        runtime.close()
    assert errors == [(ValueError, "poisoned compress")] * 2


class _LaneLog(FedSZCompressor):
    """FedSZ whose instances and clones log who compressed on which thread."""

    log: list = []

    def compress(self, state_dict):
        type(self).log.append((self, threading.current_thread()))
        return super().compress(state_dict)


def test_lanes_code_on_their_own_clones_and_hand_the_last_report_back(data, monkeypatch):
    """Each lane compresses on its own clone, never on the caller's codec;
    afterwards the caller's codec holds the report of the last client that
    uploaded, skipping one that crashed at the end of the task list."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_LaneLog, "log", [])
    codec = _LaneLog(error_bound=1e-2)
    runtime = _build_runtime(data, SerialExecutor(), codec, ClientCrashSchedule({0: [5]}))
    rounds = []
    finish_round = runtime.finish_round

    def recording_finish_round(context, results, *args, **kwargs):
        rounds.append(results)
        return finish_round(context, results, *args, **kwargs)

    runtime.finish_round = recording_finish_round
    try:
        for _ in range(2):
            runtime.run_round()
            reports = [result.stats.report for result in rounds[-1]]
            assert codec.last_report is [r for r in reports if r is not None][-1]
    finally:
        runtime.close()
    assert reports[-1] is not None and rounds[0][-1].stats.report is None
    assert len(_LaneLog.log) == 11
    assert all(instance is not codec for instance, _ in _LaneLog.log)
    threads = {id(instance): thread for instance, thread in _LaneLog.log}
    assert set(threads.items()) == {(id(i), t) for i, t in _LaneLog.log}
    assert threading.main_thread() in threads.values()  # the caller is lane 0, on a clone


# ----------------------------------------------------------------------
# The streamed schedule: helper lanes code behind the caller's training
# ----------------------------------------------------------------------
def test_a_helper_lane_error_is_raised_after_training_as_the_lowest(data, monkeypatch):
    """Four lanes code the uploads while the caller trains.  Upload 1 fails
    on a helper, then upload 0 on another, and the last client trains only
    once both have: the round raises upload 0's error after every client
    trained, and no lane thread is left."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(SZ2Compressor, "pool_min_values", 1)
    second_failed, first_failed = threading.Event(), threading.Event()
    trained = []

    def hook(position):
        if position == 5:
            assert first_failed.wait(FAILURE_CEILING_SECONDS)
        trained.append(position)

    positions = _patch_training(monkeypatch, hook)

    def compress(self, state_dict):
        position = positions[id(state_dict)]
        assert threading.current_thread() is not threading.main_thread()
        if position == 0:
            assert second_failed.wait(FAILURE_CEILING_SECONDS)
            first_failed.set()
        else:
            second_failed.set()
        raise ValueError(f"poisoned upload {position}")

    monkeypatch.setattr(FedSZCompressor, "compress", compress)
    runtime = _build_runtime(data, SerialExecutor(), FedSZCompressor(error_bound=1e-2))
    threads = threading.active_count()
    try:
        with pytest.raises(ValueError, match="poisoned upload 0"):
            runtime.run_round()  # on the main thread: lanes start only there
    finally:
        runtime.close()
    assert trained == list(range(6))
    assert threading.active_count() == threads
    assert len(runtime.history) == 0


def test_a_training_error_is_raised_after_every_helper_joined(data, monkeypatch):
    """The caller's third training raises (not a crash) while a helper codes
    upload 0: that error is the round's, raised only once the helper has
    finished its upload and joined."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(SZ2Compressor, "pool_min_values", 1)
    coding = threading.Event()
    coded = []

    def hook(position):
        if position == 2:
            assert coding.wait(FAILURE_CEILING_SECONDS)
            raise RuntimeError("training failed on the caller")

    positions = _patch_training(monkeypatch, hook)
    compress = FedSZCompressor.compress

    def slow_compress(self, state_dict):
        assert threading.current_thread() is not threading.main_thread()
        coding.set()
        time.sleep(0.05)
        payload = compress(self, state_dict)
        coded.append(positions[id(state_dict)])
        return payload

    monkeypatch.setattr(FedSZCompressor, "compress", slow_compress)
    runtime = _build_runtime(data, SerialExecutor(), FedSZCompressor(error_bound=1e-2))
    threads = threading.active_count()
    try:
        with pytest.raises(RuntimeError, match="training failed on the caller"):
            runtime.run_round()
        assert coded in ([0], [0, 1])  # upload 0 finished before the raise
        assert threading.active_count() == threads
    finally:
        runtime.close()
    assert len(runtime.history) == 0


@pytest.mark.parametrize(("model", "streams"), [("mobilenetv2", False), ("alexnet", True)])
def test_the_gate_streams_alexnet_uploads_and_not_mobilenetv2s(data, model, streams, monkeypatch):
    """With SZ2's real lane threshold, AlexNet-tiny's one ~220k-value group
    codes behind training (a helper is alive from the first training on);
    MobileNetV2-tiny's lossy partition, ~24k values, is Python-bound, so no
    helper starts before its last client has trained."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    helpers = []
    _patch_training(monkeypatch, lambda position: helpers.append(_live_helpers()))
    runtime = _build_runtime(
        data, SerialExecutor(), FedSZCompressor(error_bound=1e-2), model=model
    )
    try:
        runtime.run_round()
    finally:
        runtime.close()
    assert helpers == [1 if streams else 0] * 6


@pytest.mark.skipif(_openblas_threads("get") is None, reason="numpy bundles no OpenBLAS")
def test_process_workers_pin_blas_to_one_thread(data):
    before = _openblas_threads("get")
    _openblas_threads("set", 2)
    try:
        if _openblas_threads("get") != 2:
            pytest.skip("OpenBLAS cannot run two threads on this host")
        runtime = _build_runtime(
            data, ProcessParallelExecutor(max_workers=2), _BlasProbe(error_bound=1e-2)
        )
        reports = _run_recording_reports(runtime, rounds=1)
    finally:
        _openblas_threads("set", before)
    assert reports and {report.blas_threads for report in reports} == {1}
