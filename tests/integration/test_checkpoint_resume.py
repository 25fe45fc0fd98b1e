"""Kill-and-resume integration: a crashed run, resumed from its latest
snapshot, is bit-identical to an uninterrupted run.

The scenario deliberately stresses every stream the checkpoint must carry:

* ``client_fraction < 1`` — the participant-sampling RNG advances each round;
* link ``dropout_probability > 0`` — per-link dropout streams advance;
* mobilenetv2 (Dropout layers) — per-client stochastic streams advance;
* a FedSZ codec — payload bytes and ratios must match exactly;
* multi-epoch loaders — shuffle streams advance per epoch;
* a 130-sample validation split — three batches of the default
  ``eval_batch_size``, so the server evaluates on its two-lane pool.

Wall-clock-measured fields (train/compress seconds, turnarounds) legitimately
differ between runs; the comparison uses
:meth:`repro.fl.history.TrainingHistory.deterministic_rows`, which projects
exactly the simulation-determined fields.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import FedSZCompressor
from repro.data import load_dataset
from repro.fl import (
    FederatedRuntime,
    FLConfig,
    LinkSpec,
    ProcessParallelExecutor,
    SerialExecutor,
    ServerCrashSchedule,
    SimulatedCrash,
    Transport,
    list_checkpoints,
)
from repro.nn.models import create_model

ROUNDS = 4
CRASH_AFTER = 1


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=250, image_size=8, seed=0)
    return full.split(0.48, seed=1)  # 120 train, 130 validation


def _build_runtime(data, executor_name: str) -> FederatedRuntime:
    train, val = data
    if executor_name == "process":
        executor = ProcessParallelExecutor(max_workers=2)
    else:
        executor = SerialExecutor()
    return FederatedRuntime(
        lambda: create_model("mobilenetv2", "tiny", num_classes=10, seed=9),
        train,
        val,
        FLConfig(
            num_clients=4,
            rounds=ROUNDS,
            batch_size=16,
            local_epochs=2,
            client_fraction=0.5,
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


def _assert_states_identical(reference, resumed):
    reference_state = reference.server.global_state()
    resumed_state = resumed.server.global_state()
    assert reference_state.keys() == resumed_state.keys()
    for name in reference_state:
        np.testing.assert_array_equal(
            reference_state[name], resumed_state[name], err_msg=name
        )
        assert reference_state[name].dtype == resumed_state[name].dtype


@pytest.mark.parametrize("executor_name", ["serial", "process"])
def test_kill_after_round_k_resume_is_bit_identical(data, tmp_path, executor_name, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reference = _build_runtime(data, executor_name)
    crashed = resumed = None
    try:
        reference.run()
        assert len(reference.history) == ROUNDS

        crashed = _build_runtime(data, executor_name)
        with pytest.raises(SimulatedCrash):
            crashed.run(
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                fault_injector=ServerCrashSchedule(CRASH_AFTER),
            )
        assert len(crashed.history) == CRASH_AFTER + 1  # progress died with the process

        resumed = _build_runtime(data, executor_name)
        history = resumed.run(checkpoint_dir=tmp_path, resume=True)

        assert len(history) == ROUNDS
        assert len(resumed.server._replicas) == len(reference.server._replicas) == 1
        _assert_states_identical(reference, resumed)
        assert history.deterministic_rows() == reference.history.deterministic_rows()
        # The restored prefix carries the crashed process's measured timings
        # verbatim — resume does not re-execute already-persisted rounds.
        for restored, original in zip(
            history.records[: CRASH_AFTER + 1], crashed.history.records, strict=False
        ):
            assert restored == original
    finally:
        for runtime in (reference, crashed, resumed):
            if runtime is not None:
                runtime.close()


def test_resume_from_sparse_checkpoints_replays_unpersisted_rounds(data, tmp_path):
    """With checkpoint_every=2 a crash after round 2 resumes from the round-2
    snapshot and *re-executes* round 2 — bit-identically, because every RNG
    stream was restored to its exact pre-round state."""
    reference = _build_runtime(data, "serial")
    reference.run()

    crashed = _build_runtime(data, "serial")
    with pytest.raises(SimulatedCrash):
        crashed.run(
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
            fault_injector=ServerCrashSchedule(2),
        )
    assert len(crashed.history) == 3  # rounds 0..2 ran, only round 2 snapshot exists
    assert [path.name for path in list_checkpoints(tmp_path)] == [
        "checkpoint_round000002.ckpt"
    ]

    resumed = _build_runtime(data, "serial")
    history = resumed.run(checkpoint_dir=tmp_path, checkpoint_every=2, resume=True)
    assert len(history) == ROUNDS
    _assert_states_identical(reference, resumed)
    assert history.deterministic_rows() == reference.history.deterministic_rows()


def test_resume_with_no_snapshot_starts_fresh(data, tmp_path):
    """resume=True on an empty directory is a fresh start, so launch scripts
    can pass it unconditionally."""
    runtime = _build_runtime(data, "serial")
    history = runtime.run(checkpoint_dir=tmp_path, resume=True)
    assert len(history) == ROUNDS
    reference = _build_runtime(data, "serial")
    reference.run()
    assert history.deterministic_rows() == reference.history.deterministic_rows()


def test_repeated_crashes_converge(data, tmp_path):
    """Two successive crashes (rounds 0 and 2) still reach the reference
    outcome after two resumes — the multi-failure regime long fleet runs hit."""
    reference = _build_runtime(data, "serial")
    reference.run()

    first = _build_runtime(data, "serial")
    with pytest.raises(SimulatedCrash):
        first.run(checkpoint_dir=tmp_path, fault_injector=ServerCrashSchedule(0, 2))
    second = _build_runtime(data, "serial")
    with pytest.raises(SimulatedCrash):
        second.run(
            checkpoint_dir=tmp_path, resume=True, fault_injector=ServerCrashSchedule(0, 2)
        )
    final = _build_runtime(data, "serial")
    history = final.run(checkpoint_dir=tmp_path, resume=True)

    assert len(history) == ROUNDS
    _assert_states_identical(reference, final)
    assert history.deterministic_rows() == reference.history.deterministic_rows()


def test_constructor_attached_crash_schedule_does_not_livelock_on_sparse_checkpoints(
    data, tmp_path
):
    """Regression: with checkpoint_every=2 the crash round (2) is never
    persisted, so resume re-executes it — a one-shot crash schedule attached
    at construction (the unreliable-server preset path) must not re-fire and
    livelock every resume attempt."""
    reference = _build_runtime(data, "serial")
    reference.run()

    def build_with_injector():
        runtime = _build_runtime(data, "serial")
        runtime.fault_injector = ServerCrashSchedule(2)
        return runtime

    crashed = build_with_injector()
    with pytest.raises(SimulatedCrash):
        crashed.run(checkpoint_dir=tmp_path, checkpoint_every=2)
    assert [path.name for path in list_checkpoints(tmp_path)] == [
        "checkpoint_round000002.ckpt"
    ]

    resumed = build_with_injector()  # a restarted process re-attaches the preset
    history = resumed.run(checkpoint_dir=tmp_path, checkpoint_every=2, resume=True)
    assert len(history) == ROUNDS
    _assert_states_identical(reference, resumed)
    assert history.deterministic_rows() == reference.history.deterministic_rows()


def test_resume_refuses_a_different_codec_bound(data, tmp_path):
    """Resuming with a different error bound (or codec) would silently break
    bit-identity; the codec fingerprint must catch it up front."""
    from repro.fl import CheckpointError

    crashed = _build_runtime(data, "serial")
    with pytest.raises(SimulatedCrash):
        crashed.run(checkpoint_dir=tmp_path, fault_injector=ServerCrashSchedule(CRASH_AFTER))

    retargeted = _build_runtime(data, "serial")
    retargeted.codec = FedSZCompressor(error_bound=1e-1)
    with pytest.raises(CheckpointError, match="codec"):
        retargeted.run(checkpoint_dir=tmp_path, resume=True)

    uncompressed = _build_runtime(data, "serial")
    uncompressed.codec = None
    with pytest.raises(CheckpointError, match="codec"):
        uncompressed.run(checkpoint_dir=tmp_path, resume=True)


def test_consecutive_crash_rounds_each_fire_once(data, tmp_path):
    """Regression: resume must not swallow a listed crash round the dead
    process never reached — ServerCrashSchedule(1, 2) with dense checkpoints
    kills exactly two process generations, then the run completes."""
    from repro.fl import fired_crash_rounds

    reference = _build_runtime(data, "serial")
    reference.run()

    crashes = 0
    runtime = _build_runtime(data, "serial")
    with pytest.raises(SimulatedCrash) as first:
        runtime.run(
            checkpoint_dir=tmp_path, resume=True, fault_injector=ServerCrashSchedule(1, 2)
        )
    assert first.value.round_index == 1
    with pytest.raises(SimulatedCrash) as second:
        _build_runtime(data, "serial").run(
            checkpoint_dir=tmp_path, resume=True, fault_injector=ServerCrashSchedule(1, 2)
        )
    assert second.value.round_index == 2  # the second listed failure still fires
    assert fired_crash_rounds(tmp_path) == {1, 2}

    final = _build_runtime(data, "serial")
    history = final.run(
        checkpoint_dir=tmp_path, resume=True, fault_injector=ServerCrashSchedule(1, 2)
    )
    assert len(history) == ROUNDS
    _assert_states_identical(reference, final)
    assert history.deterministic_rows() == reference.history.deterministic_rows()


def test_crash_before_first_checkpoint_does_not_livelock(data, tmp_path):
    """Regression: a crash at round 0 with checkpoint_every=3 leaves a crash
    marker but no snapshot; resume must still consult the markers so the
    one-shot crash is not re-fired forever."""
    reference = _build_runtime(data, "serial")
    reference.run()

    crashed = _build_runtime(data, "serial")
    with pytest.raises(SimulatedCrash):
        crashed.run(
            checkpoint_dir=tmp_path,
            checkpoint_every=3,
            fault_injector=ServerCrashSchedule(0),
        )
    assert list_checkpoints(tmp_path) == []  # nothing persisted yet

    resumed = _build_runtime(data, "serial")
    history = resumed.run(
        checkpoint_dir=tmp_path,
        checkpoint_every=3,
        resume=True,
        fault_injector=ServerCrashSchedule(0),
    )
    assert len(history) == ROUNDS
    _assert_states_identical(reference, resumed)
    assert history.deterministic_rows() == reference.history.deterministic_rows()
