"""Crash-safe, round-granular checkpointing for the federated runtime.

Long-horizon federated runs (hundreds of rounds over simulated edge fleets)
previously lost everything on a crash: :class:`~repro.fl.runtime.FederatedRuntime`
held all run state — the global model, the sampling and dropout RNG streams,
each client's shuffle and Dropout streams, the adaptive-bound controller, the
round history — in memory only.  This module persists all of it:

* :class:`RunCheckpoint` — one immutable snapshot of a run after ``N``
  completed rounds.  The global model is serialized through the same
  self-describing bitstream as FedSZ payloads
  (:func:`repro.core.serializer.serialize_named_arrays` — no pickle, nothing
  executes on load), RNG streams are captured as bit-generator states, and
  the :class:`~repro.fl.history.TrainingHistory` rides along in full fidelity.
* **Atomic writes** — snapshots are written to a temporary file in the target
  directory and published with ``os.replace``, so a crash mid-write can never
  leave a partial ``*.ckpt`` behind; a CRC32 frame
  (:func:`repro.core.serializer.frame_checksummed`) additionally rejects
  truncated or bit-rotted files at load time.
* **Schema versioning** — files carry :data:`SCHEMA_VERSION`; loading a
  foreign or future schema fails with a clear :class:`CheckpointError`
  instead of mis-parsing.
* **Retention** — :func:`write_checkpoint` keeps the newest ``keep_last``
  snapshots and prunes the rest, bounding disk use on long runs.

Resume is **bit-identical**: restoring the latest snapshot into a freshly
constructed runtime and finishing the run produces exactly the final weights
and (simulation-determined) history rows of an uninterrupted run — asserted
by ``tests/integration/test_checkpoint_resume.py`` under both the serial and
process executors, with a :class:`~repro.fl.scenarios.ServerCrashSchedule`
killing the first attempt mid-run.

The checkpoint also *validates* before restoring: the run configuration,
scheduler, participation schedule, link topology and codec identity recorded
at save time must match the resuming runtime.  Executor choice is exempt:
serial and process execution produce identical simulated outcomes, so a run
may resume under the other executor or on a different worker count.  A
*stochastic shared* codec without ``clone()`` (the DP codec) draws its noise
in task order on the serial executor, which is the only executor that runs
it (see :mod:`repro.fl.executor`).  Codec state is captured through an optional
protocol: any codec exposing ``checkpoint_state()`` /
``restore_checkpoint_state(state)`` (the adaptive error-bound compressor,
the DP codec) has its evolving state carried across the crash.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.compression.errors import CorruptPayloadError
from repro.core.serializer import (
    deserialize_named_arrays,
    frame_checksummed,
    serialize_named_arrays,
    unframe_checksummed,
)
from repro.compression.base import pack_sections, unpack_sections
from repro.fl.history import TrainingHistory

#: On-disk frame magic for run checkpoints ("RePro ChecKpoint").
CHECKPOINT_MAGIC = b"RPCK"
#: Bump on any incompatible layout change; loaders refuse other versions.
SCHEMA_VERSION = 1

_FILE_PATTERN = re.compile(r"^checkpoint_round(\d{6})\.ckpt$")
_MARKER_PATTERN = re.compile(r"^crash_round(\d{6})\.fired$")
_META_KEY = "meta"
_MODEL_KEY = "model"
_HISTORY_KEY = "history"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or applied to a runtime."""


def _jsonable(value):
    """JSON encoder fallback for the numpy scalars RNG states may carry (and
    the enums codec configurations may carry)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"checkpoint metadata is not JSON-serializable: {type(value)!r}")


#: Codec settings that never change a payload: the codec pool's cap, and the
#: pool switch that fingerprints stored before the pool decided for itself
#: still carry.
_EXECUTION_ONLY_CODEC_FIELDS = frozenset({"max_codec_workers", "parallel_tensors"})


def _static_settings(fingerprint):
    """``fingerprint`` without execution-only codec settings, at any depth."""
    if not isinstance(fingerprint, dict):
        return fingerprint
    return {
        key: _static_settings(value)
        for key, value in fingerprint.items()
        if key not in _EXECUTION_ONLY_CODEC_FIELDS
    }


def codec_fingerprint(codec) -> Optional[Dict[str, object]]:
    """Identity of a codec: class name plus static configuration.

    Born as resume validation — resuming under a different codec, or the same
    codec at a different error bound, would produce different payloads and
    different reconstructed weights from the first resumed round, silently
    breaking the bit-identical guarantee, so the fingerprint is part of the
    compatibility check.  The broadcast payload cache
    (:mod:`repro.fl.broadcast`) keys on the same identity, so a codec or
    error-bound swap between rounds invalidates cached broadcasts for free.
    The identity is the codec's class name plus its static configuration: a
    dataclass ``.config`` when the codec has one
    (:class:`~repro.core.FedSZCompressor`), or the result of an opt-in
    ``checkpoint_fingerprint()`` for composite codecs whose settings live
    elsewhere (the adaptive and DP wrappers).  The value is canonicalised
    through JSON so captured and freshly computed fingerprints compare equal
    after the on-disk round trip.  Settings that only choose how the codec
    runs are left out (:func:`_static_settings`).
    """
    if codec is None:
        return None
    fingerprint: Dict[str, object] = {"type": type(codec).__name__}
    describe = getattr(codec, "checkpoint_fingerprint", None)
    if callable(describe):
        fingerprint["params"] = describe()
    else:
        config = getattr(codec, "config", None)
        if dataclasses.is_dataclass(config):
            fingerprint["params"] = dataclasses.asdict(config)
    return _static_settings(json.loads(json.dumps(fingerprint, sort_keys=True, default=_jsonable)))


@dataclass(frozen=True)
class RunCheckpoint:
    """One snapshot of a federated run after ``rounds_completed`` rounds.

    Everything needed to continue the run bit-identically: the global model
    weights, every RNG stream that advances round by round (participant
    sampling, per-link dropout, per-client shuffle and Dropout streams),
    optional codec state (adaptive controller, DP noise stream), the full
    round history, and the configuration fingerprints used to validate that
    the resuming runtime matches the one that crashed.
    """

    rounds_completed: int
    config: Dict[str, object]
    scheduler: Dict[str, object]
    schedule: Optional[Dict[str, object]]
    transport: Dict[str, object]
    sampling_rng: Dict[str, object]
    link_rngs: Dict[str, object]
    clients: Dict[str, object]
    codec: Optional[Dict[str, object]]
    codec_fingerprint: Optional[Dict[str, object]]
    history_rows: List[Dict[str, object]]
    model_state: Dict[str, np.ndarray] = field(repr=False)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Bytes <-> snapshot
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the framed, checksummed on-disk layout."""
        meta = {
            "schema_version": self.schema_version,
            "rounds_completed": self.rounds_completed,
            "config": self.config,
            "scheduler": self.scheduler,
            "schedule": self.schedule,
            "transport": self.transport,
            "sampling_rng": self.sampling_rng,
            "link_rngs": self.link_rngs,
            "clients": self.clients,
            "codec": self.codec,
            "codec_fingerprint": self.codec_fingerprint,
        }
        payload = pack_sections(
            {
                _META_KEY: json.dumps(meta, sort_keys=True, default=_jsonable).encode("utf-8"),
                _MODEL_KEY: serialize_named_arrays(self.model_state),
                _HISTORY_KEY: json.dumps(self.history_rows, default=_jsonable).encode("utf-8"),
            }
        )
        return frame_checksummed(CHECKPOINT_MAGIC, payload)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RunCheckpoint":
        """Parse the on-disk layout; raises :class:`CheckpointError` on any
        corruption, truncation, or schema mismatch."""
        try:
            payload = unframe_checksummed(CHECKPOINT_MAGIC, blob)
            sections = unpack_sections(payload)
        except CorruptPayloadError as error:
            raise CheckpointError(f"not a valid checkpoint: {error}") from error
        for key in (_META_KEY, _MODEL_KEY, _HISTORY_KEY):
            if key not in sections:
                raise CheckpointError(f"checkpoint is missing its {key!r} section")
        try:
            meta = json.loads(sections[_META_KEY].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CheckpointError(f"checkpoint metadata is not valid JSON: {error}") from error
        if not isinstance(meta, dict):
            raise CheckpointError("checkpoint metadata is not a JSON object")
        version = meta.get("schema_version")
        if version != SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint schema version {version!r} is not supported by this "
                f"build (expected {SCHEMA_VERSION}); it was written by an "
                "incompatible release and cannot be resumed safely"
            )
        try:
            model_state = deserialize_named_arrays(sections[_MODEL_KEY])
        except CorruptPayloadError as error:
            raise CheckpointError(f"checkpoint model section is corrupt: {error}") from error
        try:
            history_rows = json.loads(sections[_HISTORY_KEY].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CheckpointError(f"checkpoint history is not valid JSON: {error}") from error
        try:
            return cls(
                rounds_completed=int(meta["rounds_completed"]),
                config=meta["config"],
                scheduler=meta["scheduler"],
                schedule=meta["schedule"],
                transport=meta["transport"],
                sampling_rng=meta["sampling_rng"],
                link_rngs=meta["link_rngs"],
                clients=meta["clients"],
                codec=meta["codec"],
                codec_fingerprint=meta["codec_fingerprint"],
                history_rows=history_rows,
                model_state=model_state,
                schema_version=int(version),
            )
        except KeyError as error:
            raise CheckpointError(f"checkpoint metadata has no {error} field") from error
        except (TypeError, ValueError) as error:  # a non-integer round count
            raise CheckpointError(f"checkpoint metadata is malformed: {error}") from error


# ----------------------------------------------------------------------
# Runtime <-> snapshot
# ----------------------------------------------------------------------
def capture_runtime(runtime) -> RunCheckpoint:
    """Snapshot a :class:`~repro.fl.runtime.FederatedRuntime` mid-run."""
    codec_state = None
    capture = getattr(runtime.codec, "checkpoint_state", None)
    if callable(capture):
        codec_state = capture()
    clients = {
        str(client_id): client.checkpoint_state()
        for client_id, client in runtime.clients.materialized_items()
    }
    return RunCheckpoint(
        rounds_completed=len(runtime.history),
        config=dataclasses.asdict(runtime.config),
        scheduler=runtime.scheduler.state_dict(),
        schedule=runtime.schedule.state_dict() if runtime.schedule is not None else None,
        transport=runtime.transport.spec_fingerprint(),
        sampling_rng=runtime._sampling_rng.bit_generator.state,
        link_rngs={str(cid): state for cid, state in runtime.transport.rng_states().items()},
        clients=clients,
        codec=codec_state,
        codec_fingerprint=codec_fingerprint(runtime.codec),
        history_rows=runtime.history.serialize(),
        model_state=runtime.server.global_state(),
    )


def _check_match(kind: str, saved, current) -> None:
    if saved != current:
        raise CheckpointError(
            f"checkpoint {kind} does not match the resuming runtime "
            f"(saved {saved!r}, runtime has {current!r}); resuming under a "
            f"different {kind} would break bit-identical resumption"
        )


#: Config fields that do not influence the simulated outcome and may differ
#: between the checkpointing and resuming processes: the round target (resume
#: may extend a run) and the executor choice (serial and process execution
#: are bit-identical by construction, so a run may resume under the other
#: executor, a different worker count, or from a snapshot that names an
#: executor since removed).  ``engine`` and ``max_resident_models`` are no
#: longer ``FLConfig`` fields: snapshots written while they were (they chose
#: the round-loop implementation and the model-pool bound) carry the keys and
#: must still restore.
_EXECUTION_ONLY_CONFIG_FIELDS = frozenset(
    {"rounds", "max_resident_models", "executor", "max_workers", "engine"}
)

#: ``LinkSpec`` fields that snapshots written while they existed still carry
#: in their transport topology.  ``real_sleep`` slept through the modelled
#: seconds and changed no recorded number.
_STALE_LINK_FIELDS = frozenset({"real_sleep"})


def _current_topology(transport: Dict[str, object]) -> Dict[str, object]:
    """A stored transport topology without the ``LinkSpec`` fields since removed."""

    def current(spec):
        return {key: value for key, value in spec.items() if key not in _STALE_LINK_FIELDS}

    topology = dict(transport)
    if "spec" in topology:
        topology["spec"] = current(topology["spec"])
    if "specs" in topology:
        topology["specs"] = [current(spec) for spec in topology["specs"]]
    return topology


def validate_compatible(runtime, checkpoint: RunCheckpoint) -> None:
    """Refuse to resume a checkpoint into a runtime it was not taken from."""
    saved = {
        key: value
        for key, value in checkpoint.config.items()
        if key not in _EXECUTION_ONLY_CONFIG_FIELDS
    }
    current = {
        key: value
        for key, value in dataclasses.asdict(runtime.config).items()
        if key not in _EXECUTION_ONLY_CONFIG_FIELDS
    }
    _check_match("run configuration", saved, current)
    _check_match("scheduler", checkpoint.scheduler, runtime.scheduler.state_dict())
    _check_match(
        "participation schedule",
        checkpoint.schedule,
        runtime.schedule.state_dict() if runtime.schedule is not None else None,
    )
    _check_match(
        "transport topology",
        _current_topology(checkpoint.transport),
        runtime.transport.spec_fingerprint(),
    )
    _check_match(
        "codec", _static_settings(checkpoint.codec_fingerprint), codec_fingerprint(runtime.codec)
    )
    if checkpoint.codec is not None and not callable(
        getattr(runtime.codec, "restore_checkpoint_state", None)
    ):
        raise CheckpointError(
            "checkpoint carries codec state but the runtime's codec does not "
            "implement restore_checkpoint_state(); resume with the codec the "
            "run was started with"
        )


def restore_runtime(runtime, checkpoint: RunCheckpoint) -> None:
    """Load a snapshot into a freshly constructed runtime.

    The runtime must have been built with the same configuration, scheduler,
    schedule and transport as the one the checkpoint was captured from
    (validated first; :class:`CheckpointError` otherwise).  After this call
    the runtime is indistinguishable — for every future round — from the one
    that wrote the snapshot.
    """
    validate_compatible(runtime, checkpoint)
    runtime.server.set_global_state(checkpoint.model_state)
    runtime.history = TrainingHistory.deserialize(checkpoint.history_rows)
    runtime._sampling_rng.bit_generator.state = checkpoint.sampling_rng
    runtime.transport.restore_rng_states(
        {int(cid): state for cid, state in checkpoint.link_rngs.items()}
    )
    for cid, state in checkpoint.clients.items():
        runtime.clients[int(cid)].restore_checkpoint_state(state)
    if checkpoint.codec is not None:
        runtime.codec.restore_checkpoint_state(checkpoint.codec)


# ----------------------------------------------------------------------
# Directory layout, atomic writes, retention
# ----------------------------------------------------------------------
def checkpoint_path(directory: Path | str, rounds_completed: int) -> Path:
    """Canonical file name for a snapshot after ``rounds_completed`` rounds."""
    if rounds_completed < 0 or rounds_completed > 999_999:
        raise ValueError(f"rounds_completed out of range: {rounds_completed}")
    return Path(directory) / f"checkpoint_round{rounds_completed:06d}.ckpt"


def _checkpoint_round(path: Path) -> int:
    return int(_FILE_PATTERN.match(path.name).group(1))


def _crash_markers(directory: Path) -> List[tuple]:
    """``(round_index, path)`` for every crash marker in ``directory``."""
    if not directory.is_dir():
        return []
    markers = []
    for entry in directory.iterdir():
        match = _MARKER_PATTERN.match(entry.name)
        if match:
            markers.append((int(match.group(1)), entry))
    return sorted(markers)


def record_crash_marker(directory: Path | str, round_index: int) -> Path:
    """Durably note that the simulated crash after ``round_index`` fired.

    A snapshot alone cannot say whether the crash round itself was executed —
    a sparse-checkpoint crash dies *after* re-executable rounds — so the
    runtime drops this marker as the :class:`SimulatedCrash` propagates.
    :func:`fired_crash_rounds` feeds the markers back to the fault injector on
    resume, giving one-shot crash schedules exact once-per-round semantics:
    an un-persisted crash round is not re-crashed on replay (no livelock),
    while a listed round that genuinely never ran still fires.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    marker = directory / f"crash_round{int(round_index):06d}.fired"
    marker.touch()
    return marker


def fired_crash_rounds(directory: Path | str) -> frozenset:
    """Round indices whose simulated crash already fired in an earlier process."""
    return frozenset(round_index for round_index, _ in _crash_markers(Path(directory)))


def list_checkpoints(directory: Path | str) -> List[Path]:
    """All checkpoint files in ``directory``, oldest round first.

    In-progress temporaries and foreign files are ignored, so a crash during
    a write never confuses discovery.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _FILE_PATTERN.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def latest_checkpoint(directory: Path | str) -> Optional[Path]:
    """The newest snapshot in ``directory`` (``None`` when there is none)."""
    paths = list_checkpoints(directory)
    return paths[-1] if paths else None


def write_checkpoint(
    checkpoint: RunCheckpoint, directory: Path | str, keep_last: int = 3
) -> Path:
    """Atomically persist a snapshot and prune old ones.

    The bytes are written to a private temporary file in the same directory
    and published with ``os.replace`` — on every platform this repo targets
    that rename is atomic, so readers (and post-crash resumers) only ever see
    complete, checksummed files.  On any failure the temporary is removed.

    After a successful publish, pruning runs in two steps.  First, snapshots
    (and crash markers) from rounds **beyond** this one are deleted: in a live
    run rounds only increase, so anything "from the future" belongs to an
    abandoned timeline — e.g. a fresh, non-resume run re-using a directory
    left behind by a longer crashed run; keeping those files would make
    ``latest_checkpoint`` prefer the abandoned run's state over what was just
    written.  Then all but the newest ``keep_last`` snapshots of the current
    timeline are deleted.
    """
    if keep_last < 1:
        raise ValueError(f"keep_last must be at least 1, got {keep_last}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    destination = checkpoint_path(directory, checkpoint.rounds_completed)
    temporary = directory / f".{destination.name}.tmp.{os.getpid()}"
    try:
        temporary.write_bytes(checkpoint.to_bytes())
        os.replace(temporary, destination)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    remaining = []
    for path in list_checkpoints(directory):
        if _checkpoint_round(path) > checkpoint.rounds_completed:
            path.unlink(missing_ok=True)  # abandoned-timeline future snapshot
        else:
            remaining.append(path)
    for marker_round, marker in _crash_markers(directory):
        if marker_round > checkpoint.rounds_completed:
            marker.unlink(missing_ok=True)
    for stale in remaining[:-keep_last]:
        stale.unlink(missing_ok=True)
    return destination


def load_checkpoint(path: Path | str) -> RunCheckpoint:
    """Read and validate one snapshot file."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    return RunCheckpoint.from_bytes(blob)


__all__ = [
    "CHECKPOINT_MAGIC",
    "SCHEMA_VERSION",
    "CheckpointError",
    "RunCheckpoint",
    "codec_fingerprint",
    "capture_runtime",
    "restore_runtime",
    "validate_compatible",
    "checkpoint_path",
    "list_checkpoints",
    "latest_checkpoint",
    "write_checkpoint",
    "load_checkpoint",
    "record_crash_marker",
    "fired_crash_rounds",
]
