"""Unit tests for the crash-safe checkpoint subsystem (schema, atomicity,
retention, validation)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.compression.base import pack_sections
from repro.core import FedSZCompressor
from repro.core.adaptive import AdaptiveErrorBoundController, AdaptiveFedSZCompressor
from repro.core.serializer import frame_checksummed, serialize_named_arrays
from repro.data import load_dataset
from repro.fl import FederatedRuntime, FLConfig, LinkSpec, Transport
from repro.fl.checkpoint import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    RunCheckpoint,
    capture_runtime,
    checkpoint_path,
    codec_fingerprint,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    restore_runtime,
    write_checkpoint,
)
from repro.fl.scheduler import SemiSynchronousScheduler
from repro.nn.models import create_model
from repro.privacy import DPFedSZCompressor


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=160, image_size=8, seed=0)
    return full.split(0.75, seed=1)


@pytest.fixture
def model_fn():
    return lambda: create_model("alexnet", "tiny", num_classes=10, seed=9)


def _build_runtime(data, model_fn, transport=None, **config_overrides):
    train, val = data
    kwargs = dict(num_clients=3, rounds=2, batch_size=16, seed=3)
    kwargs.update(config_overrides)
    return FederatedRuntime(model_fn, train, val, FLConfig(**kwargs), transport=transport)


# ----------------------------------------------------------------------
# Snapshot round trip
# ----------------------------------------------------------------------
def test_checkpoint_bytes_roundtrip_preserves_everything(data, model_fn, tmp_path):
    runtime = _build_runtime(data, model_fn)
    runtime.run_round()
    checkpoint = capture_runtime(runtime)

    path = write_checkpoint(checkpoint, tmp_path)
    assert path == checkpoint_path(tmp_path, 1)
    loaded = load_checkpoint(path)

    assert loaded.schema_version == checkpoint.schema_version
    assert loaded.rounds_completed == 1
    assert loaded.config == checkpoint.config
    assert loaded.scheduler == checkpoint.scheduler
    assert loaded.sampling_rng == checkpoint.sampling_rng
    assert loaded.link_rngs == checkpoint.link_rngs
    assert loaded.clients == checkpoint.clients
    assert loaded.history_rows == checkpoint.history_rows
    assert loaded.model_state.keys() == checkpoint.model_state.keys()
    for name in checkpoint.model_state:
        np.testing.assert_array_equal(loaded.model_state[name], checkpoint.model_state[name])
        assert loaded.model_state[name].dtype == checkpoint.model_state[name].dtype


def test_restore_reproduces_sampling_and_client_streams(data, model_fn, tmp_path):
    runtime = _build_runtime(data, model_fn, client_fraction=0.5)
    runtime.run_round()
    write_checkpoint(capture_runtime(runtime), tmp_path)

    fresh = _build_runtime(data, model_fn, client_fraction=0.5)
    restore_runtime(fresh, load_checkpoint(latest_checkpoint(tmp_path)))

    assert len(fresh.history) == 1
    assert fresh.history.records == runtime.history.records
    assert fresh._sampling_rng.bit_generator.state == runtime._sampling_rng.bit_generator.state
    # Continuing both runtimes draws identical participant samples.
    assert [c.client_id for c in fresh._sample_clients()] == [
        c.client_id for c in runtime._sample_clients()
    ]


# ----------------------------------------------------------------------
# Corruption, truncation, schema versioning
# ----------------------------------------------------------------------
def _write_valid_checkpoint(data, model_fn, tmp_path):
    runtime = _build_runtime(data, model_fn)
    runtime.run_round()
    return write_checkpoint(capture_runtime(runtime), tmp_path)


def test_corrupt_checkpoint_rejected_with_clear_error(data, model_fn, tmp_path):
    path = _write_valid_checkpoint(data, model_fn, tmp_path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # flip one byte in the body
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(path)


def test_truncated_checkpoint_rejected(data, model_fn, tmp_path):
    path = _write_valid_checkpoint(data, model_fn, tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        load_checkpoint(path)
    path.write_bytes(blob[:6])  # shorter than even the frame header
    with pytest.raises(CheckpointError, match="too short"):
        load_checkpoint(path)


def test_foreign_magic_rejected(tmp_path):
    path = tmp_path / "checkpoint_round000001.ckpt"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_forged_frame_with_a_non_utf8_section_name_is_a_checkpoint_error():
    """A valid CRC over a section name that is not UTF-8 fails closed."""
    payload = pack_sections({"meta": b"{}"}).replace(b"meta", b"\xffeta", 1)
    with pytest.raises(CheckpointError, match="not UTF-8"):
        RunCheckpoint.from_bytes(frame_checksummed(CHECKPOINT_MAGIC, payload))


def test_old_schema_version_refused(data, model_fn, tmp_path):
    """A file from an incompatible release must fail loudly, not mis-parse."""
    runtime = _build_runtime(data, model_fn)
    checkpoint = capture_runtime(runtime)
    meta = {
        "schema_version": 0,  # ancient
        "rounds_completed": 0,
        "config": checkpoint.config,
        "scheduler": checkpoint.scheduler,
        "schedule": None,
        "transport": checkpoint.transport,
        "sampling_rng": checkpoint.sampling_rng,
        "link_rngs": {},
        "clients": {},
        "codec": None,
    }
    payload = pack_sections(
        {
            "meta": json.dumps(meta).encode("utf-8"),
            "model": serialize_named_arrays(checkpoint.model_state),
            "history": b"[]",
        }
    )
    path = tmp_path / "checkpoint_round000000.ckpt"
    path.write_bytes(frame_checksummed(CHECKPOINT_MAGIC, payload))
    with pytest.raises(CheckpointError, match="schema version 0"):
        load_checkpoint(path)


# ----------------------------------------------------------------------
# Atomic writes and retention
# ----------------------------------------------------------------------
def test_crash_during_write_leaves_no_partial_files(data, model_fn, tmp_path, monkeypatch):
    """Simulate the process dying at the publish step: the directory must
    contain no (partial) .ckpt and no leftover temporary."""
    runtime = _build_runtime(data, model_fn)
    checkpoint = capture_runtime(runtime)

    def crash(*args, **kwargs):
        raise OSError("simulated crash during rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        write_checkpoint(checkpoint, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_crash_before_publish_is_invisible_to_discovery(data, model_fn, tmp_path):
    """A stray temporary from a hard kill (no cleanup ran) is ignored by
    discovery and never mistaken for a snapshot."""
    (tmp_path / ".checkpoint_round000009.ckpt.tmp.12345").write_bytes(b"partial")
    assert list_checkpoints(tmp_path) == []
    assert latest_checkpoint(tmp_path) is None
    # A later successful write coexists with (and is found despite) the stray.
    runtime = _build_runtime(data, model_fn)
    path = write_checkpoint(capture_runtime(runtime), tmp_path)
    assert latest_checkpoint(tmp_path) == path


def test_retention_keeps_only_newest_snapshots(data, model_fn, tmp_path):
    runtime = _build_runtime(data, model_fn, rounds=5)
    for _ in range(5):
        runtime.run_round()
        write_checkpoint(capture_runtime(runtime), tmp_path, keep_last=2)
    names = [path.name for path in list_checkpoints(tmp_path)]
    assert names == ["checkpoint_round000004.ckpt", "checkpoint_round000005.ckpt"]
    with pytest.raises(ValueError):
        write_checkpoint(capture_runtime(runtime), tmp_path, keep_last=0)


def test_latest_checkpoint_picks_highest_round(tmp_path):
    assert latest_checkpoint(tmp_path / "missing") is None
    for rounds in (3, 1, 2):
        (tmp_path / f"checkpoint_round{rounds:06d}.ckpt").write_bytes(b"x")
    latest = latest_checkpoint(tmp_path)
    assert latest is not None and latest.name == "checkpoint_round000003.ckpt"


# ----------------------------------------------------------------------
# Resume validation
# ----------------------------------------------------------------------
def test_resume_refuses_mismatched_config(data, model_fn, tmp_path):
    runtime = _build_runtime(data, model_fn)
    runtime.run_round()
    write_checkpoint(capture_runtime(runtime), tmp_path)
    other = _build_runtime(data, model_fn, seed=4)
    with pytest.raises(CheckpointError, match="run configuration"):
        restore_runtime(other, load_checkpoint(latest_checkpoint(tmp_path)))


def test_resume_allows_execution_only_config_changes(data, model_fn, tmp_path):
    """The round target and the executor do not affect the simulated outcome,
    so resuming may change them (e.g. to extend a finished run on workers)."""
    runtime = _build_runtime(data, model_fn)
    runtime.run_round()
    write_checkpoint(capture_runtime(runtime), tmp_path)
    other = _build_runtime(data, model_fn, rounds=7, executor="process", max_workers=2)
    try:
        restore_runtime(other, load_checkpoint(latest_checkpoint(tmp_path)))
    finally:
        other.close()
    assert len(other.history) == 1


def _stale_config(key, value):
    def mutate(snapshot):
        snapshot.config[key] = value

    return mutate


def _stale_link_field(snapshot):
    transport = snapshot.transport
    for spec in transport["specs"] if "specs" in transport else [transport["spec"]]:
        spec["real_sleep"] = False


def _heterogeneous():
    return Transport.heterogeneous([LinkSpec(bandwidth_mbps=bw) for bw in (5.0, 10.0)], cycle=True)


#: Keys that snapshots written by older code carry: ``(mutate, transport)``.
STALE_SNAPSHOTS = {
    "engine": (_stale_config("engine", "rounds"), lambda: None),
    "max-resident-models": (_stale_config("max_resident_models", 2), lambda: None),
    "thread-executor": (_stale_config("executor", "thread"), lambda: None),
    "real-sleep": (_stale_link_field, lambda: None),
    "real-sleep-heterogeneous": (_stale_link_field, _heterogeneous),
}


@pytest.mark.parametrize("stale", STALE_SNAPSHOTS)
def test_snapshot_carrying_a_stale_engine_key_still_resumes(data, model_fn, tmp_path, stale):
    """``engine``, ``max_resident_models``, the thread executor and
    ``LinkSpec.real_sleep`` are gone, but snapshots on disk were written when
    they existed: they restore and finish bit-identically, and the stale key
    does not loosen the check on fields that decide the outcome."""
    mutate, transport = STALE_SNAPSHOTS[stale]
    reference = _build_runtime(data, model_fn, transport())
    rows = reference.run().deterministic_rows()

    first = _build_runtime(data, model_fn, transport())
    first.run_round()
    snapshot = capture_runtime(first)
    mutate(snapshot)
    path = write_checkpoint(snapshot, tmp_path)
    loaded = load_checkpoint(path)
    assert (loaded.config, loaded.transport) == (snapshot.config, snapshot.transport)

    other = _build_runtime(data, model_fn, transport(), learning_rate=0.01)
    with pytest.raises(CheckpointError, match="run configuration"):
        restore_runtime(other, load_checkpoint(path))
    elsewhere = _build_runtime(data, model_fn, Transport.homogeneous(bandwidth_mbps=5.0))
    with pytest.raises(CheckpointError, match="transport topology"):
        restore_runtime(elsewhere, load_checkpoint(path))

    resumed = _build_runtime(data, model_fn, transport())
    history = resumed.run(checkpoint_dir=tmp_path, resume=True)
    assert history.deterministic_rows() == rows
    for name, value in reference.server.global_state().items():
        np.testing.assert_array_equal(resumed.server.global_state()[name], value)


def test_resume_refuses_mismatched_scheduler(data, model_fn, tmp_path):
    runtime = _build_runtime(data, model_fn)
    runtime.run_round()
    write_checkpoint(capture_runtime(runtime), tmp_path)
    train, val = data
    other = FederatedRuntime(
        model_fn, train, val,
        FLConfig(num_clients=3, rounds=2, batch_size=16, seed=3),
        scheduler=SemiSynchronousScheduler(deadline_seconds=10.0),
    )
    with pytest.raises(CheckpointError, match="scheduler"):
        restore_runtime(other, load_checkpoint(latest_checkpoint(tmp_path)))


def test_resume_refuses_mismatched_transport(data, model_fn, tmp_path):
    runtime = _build_runtime(data, model_fn)
    runtime.run_round()
    write_checkpoint(capture_runtime(runtime), tmp_path)
    train, val = data
    other = FederatedRuntime(
        model_fn, train, val,
        FLConfig(num_clients=3, rounds=2, batch_size=16, seed=3),
        transport=Transport.heterogeneous([LinkSpec(bandwidth_mbps=5.0)] * 3),
    )
    with pytest.raises(CheckpointError, match="transport"):
        restore_runtime(other, load_checkpoint(latest_checkpoint(tmp_path)))


def test_resume_refuses_mismatched_codec(data, model_fn, tmp_path):
    """A checkpoint from a DP-codec run must not restore into a codec-less
    runtime (or any codec with a different identity/settings)."""
    train, val = data
    config = FLConfig(num_clients=3, rounds=2, batch_size=16, seed=3)
    stateful = FederatedRuntime(
        model_fn, train, val, config, codec=DPFedSZCompressor(seed=5)
    )
    stateful.run_round()
    write_checkpoint(capture_runtime(stateful), tmp_path)
    plain = FederatedRuntime(model_fn, train, val, config)
    with pytest.raises(CheckpointError, match="codec"):
        restore_runtime(plain, load_checkpoint(latest_checkpoint(tmp_path)))
    # Same codec class but a different privacy budget is also refused.
    retuned = FederatedRuntime(
        model_fn, train, val, config, codec=DPFedSZCompressor(epsilon_per_round=2.0, seed=5)
    )
    with pytest.raises(CheckpointError, match="codec"):
        restore_runtime(retuned, load_checkpoint(latest_checkpoint(tmp_path)))
    # The matching codec restores fine.
    matching = FederatedRuntime(
        model_fn, train, val, config, codec=DPFedSZCompressor(seed=5)
    )
    restore_runtime(matching, load_checkpoint(latest_checkpoint(tmp_path)))
    assert matching.codec.rounds_released == stateful.codec.rounds_released


def test_codec_worker_cap_is_not_part_of_the_codec_identity(data, model_fn, tmp_path):
    """Payloads are byte-identical at any codec-pool cap, so a run resumes
    under another one — also from a snapshot whose fingerprint carries the cap
    and the retired ``parallel_tensors`` switch — while a different error bound
    is still refused."""
    train, val = data
    config = FLConfig(num_clients=3, rounds=2, batch_size=16, seed=3)

    def runtime(**codec):
        return FederatedRuntime(model_fn, train, val, config, codec=FedSZCompressor(**codec))

    assert codec_fingerprint(FedSZCompressor(max_codec_workers=4)) == codec_fingerprint(
        FedSZCompressor()
    )
    first = runtime(max_codec_workers=4)
    first.run_round()
    snapshot = capture_runtime(first)
    snapshot.codec_fingerprint["params"].update(parallel_tensors=True, max_codec_workers=4)
    path = write_checkpoint(snapshot, tmp_path)
    resumed = runtime(max_codec_workers=2)
    restore_runtime(resumed, load_checkpoint(path))
    assert len(resumed.history) == 1
    with pytest.raises(CheckpointError, match="codec"):
        restore_runtime(runtime(error_bound=1e-3, max_codec_workers=4), load_checkpoint(path))


# ----------------------------------------------------------------------
# Stateful-codec snapshots
# ----------------------------------------------------------------------
def test_dp_codec_checkpoint_state_roundtrip():
    codec = DPFedSZCompressor(seed=5)
    codec.compress({"w": np.ones((40, 40), dtype=np.float32)})
    state = codec.checkpoint_state()
    state = json.loads(json.dumps(state))  # must survive the JSON leg

    other = DPFedSZCompressor(seed=99)
    other.restore_checkpoint_state(state)
    assert other.rounds_released == codec.rounds_released
    assert other.spent_epsilon == codec.spent_epsilon
    payload_a = codec.compress({"w": np.ones((40, 40), dtype=np.float32)})
    payload_b = other.compress({"w": np.ones((40, 40), dtype=np.float32)})
    assert payload_a == payload_b  # identical noise stream continuation
    with pytest.raises(ValueError, match="dp-fedsz"):
        other.restore_checkpoint_state({"kind": "adaptive-fedsz"})


def test_adaptive_codec_checkpoint_state_roundtrip():
    codec = AdaptiveFedSZCompressor(
        AdaptiveErrorBoundController(initial_bound=1e-2, tolerance=0.0, patience=1)
    )
    codec.observe_accuracy(0.5)
    codec.observe_accuracy(0.2)  # forces a tighten
    state = json.loads(json.dumps(codec.checkpoint_state()))

    other = AdaptiveFedSZCompressor(
        AdaptiveErrorBoundController(initial_bound=1e-2, tolerance=0.0, patience=1)
    )
    other.restore_checkpoint_state(state)
    assert other.current_bound == codec.current_bound
    assert other.controller.best_accuracy == codec.controller.best_accuracy
    assert other.controller.adjustments == codec.controller.adjustments
    # The restored controller continues the feedback loop identically.
    assert other.observe_accuracy(0.6).action == codec.observe_accuracy(0.6).action
    assert other.current_bound == codec.current_bound


def test_fresh_run_into_stale_directory_prunes_abandoned_timeline(data, model_fn, tmp_path):
    """Regression: retention pruned purely by round number, so a fresh run
    re-using a directory holding a *longer* crashed run's snapshots deleted
    its own just-written snapshot and left the stale files as latest."""
    long_run = _build_runtime(data, model_fn, rounds=6)
    for _ in range(6):
        long_run.run_round()
        write_checkpoint(capture_runtime(long_run), tmp_path, keep_last=3)
    assert [p.name for p in list_checkpoints(tmp_path)] == [
        "checkpoint_round000004.ckpt",
        "checkpoint_round000005.ckpt",
        "checkpoint_round000006.ckpt",
    ]

    fresh = _build_runtime(data, model_fn)
    fresh.run_round()
    written = write_checkpoint(capture_runtime(fresh), tmp_path, keep_last=3)
    assert written.exists()
    assert list_checkpoints(tmp_path) == [written]
    assert latest_checkpoint(tmp_path) == written
    assert load_checkpoint(written).rounds_completed == 1
