"""Executor layer of the federated runtime.

Executors decide *how* the per-round client work (local training, update
compression, transport) runs.  Both run the same client-task code — the two
upload halves of :mod:`repro.fl.transport` — and differ only in where, and
each trains on exactly one thread per process:

* :class:`SerialExecutor` trains clients one after another on the caller
  and codes their uploads on one lane per core, each lane on its own
  ``clone()`` of the codec (a codec without one — adaptive, DP — a
  one-upload round or a call off the main thread codes on the caller, in
  task order, once every client has trained), then runs the link halves in
  task order;
* :class:`ProcessParallelExecutor` runs them on a persistent pool of
  shared-nothing worker processes, each with a private interpreter, model
  pool and codec clone — the executor for compute-bound rounds.

The serial executor keeps one schedule, a stream: right after each client
trains, the caller rolls its link's dropout and hands its upload's codec
half to the helper lanes, which pull the uploads in task order as they
arrive; when the last client has trained the caller joins them as lane 0.
So the codec runs behind training, on the core training leaves idle — but
only where an upload releases the GIL long enough to overlap the caller's
Python (:func:`~repro.core.pipeline.codes_off_the_gil`: a lossy group of at
least the codec's ``pool_min_values``, asked once a round of the broadcast
state).  Otherwise the helpers start once the last client has trained.
AlexNet-tiny under SZ2 (one ~220k-value group) streams: ten alternating
``perf/run.py --workload fl_codec_heavy`` pairs read ``round_s`` 0.153 →
0.143 s on seed 11 and 0.150 → 0.142 s on seed 23 (2 vCPUs, BLAS pinned).
MobileNetV2-tiny's whole lossy partition is ~24k values of Python-bound
codec work that contends with training for the GIL: streamed,
``fl_train_heavy`` read 0.152 → 0.162 s (five pairs), so it keeps the
batched lanes.  A streamed round's measured ``train_seconds`` (wall clock)
include the caller's waits for the GIL: a median AlexNet-tiny client of that
fleet reads 4.2 → 5.7 ms.  A codec error on a helper surfaces once training
is done, as the lowest-index error; a training error on the caller wins over
it, once every helper has joined — what training every client before coding
any raises.

Measured on a 256-client ``uniform-edge`` fleet (13 clients a round, sz2 REL
1e-2, BLAS pinned to one thread, 2 shared vCPUs, 12 steady rounds, three
alternations): alexnet serial 0.205–0.246 s a round / 2 processes
0.232–0.238 / 2 threads 0.211–0.233; mobilenetv2 0.224–0.248 / 0.178–0.187 /
0.268–0.270 — the thread executor, deleted for it, won only over sleeping
links.  A serial lane's codec half includes the upload's bound utilization,
and SZ2 codes AlexNet-tiny's lossy tensors in one walk: ten alternating
``perf/run.py --workload fl_codec_heavy`` pairs read
``round_s`` 0.177 → 0.159 s when both moved there (seed 11).

Results are always returned in task order regardless of completion order, and
every client draws from its own seeded streams, so the executor choice never
changes the simulated outcome — only the wall-clock time to compute it
(``tests/integration/test_process_executor.py`` and
``test_executor_parity.py`` pin the guarantee).  A *stochastic* shared codec
without ``clone()`` (e.g. the DP codec, whose noise stream is consumed in call
order) codes on the serial executor's caller in task order, so it is
reproducible too; the process executor refuses it outright (its workers need
independent clones).

When a codec exposes ``clone()`` (e.g. :class:`repro.core.FedSZCompressor`),
each serial lane or worker process codes on **its own clone**, and after the
round the caller's codec reports the last participant's ``last_report``.

The process executor keeps determinism with a strict split of ownership:
**workers** train and run the upload's codec half against per-task client RNG
snapshots shipped in the task spec and shipped back advanced; the **parent**
keeps every simulation stream it owns — it pre-rolls link dropout in task
order before dispatch and runs the upload's link half in task order after
collection, so channel logs and RNG streams match the serial run draw for
draw.  Each round the parent ships a single
:class:`~repro.fl.broadcast.BroadcastPayload` to every worker, which decodes
it once and serves all of its tasks that round from the decoded state.  Every message
either side puts on a queue is pickled first, on the sending thread, so
one that cannot be pickled fails its round naming the client instead of
hanging it (:func:`_pickled`).

One lane runner, :func:`repro.utils.pools.run_lanes`, is every thread pool
here — the serial executor's upload lanes (fed the stream as it trains),
the pipeline's per-tensor codec pool and the evaluation pool over
validation batches (:func:`repro.fl.server.evaluate_model`) — with the
calling thread as lane 0,
and its pools never multiply: one starts only from the main thread of a
process that is not a ``multiprocessing`` child, outside any lane
(:func:`repro.utils.pools.pool_width`).  So lanes and process workers code and
evaluate serially (the per-tensor pool serves one-upload serial rounds), and
the server evaluates after the round's clients.  Process workers also cap
numpy's bundled OpenBLAS at one thread each.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import pickle
import queue as queue_module
import traceback
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import FedSZConfig
from repro.core.pipeline import codes_off_the_gil
from repro.fl.broadcast import BroadcastPayload
from repro.fl.checkpoint import codec_fingerprint
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.scenarios import ClientCrash, CorruptedUpload
from repro.fl.state import ClientRegistry, ModelPool
from repro.fl.transport import (
    ClientLink,
    LinkSpec,
    TransferStats,
    UploadRecord,
    account_upload,
    encode_upload,
    transmit_update,  # noqa: F401 -- span target of perf/fedbench/spans.py
)
from repro.utils.pools import pool_width, run_lanes
from repro.utils.validation import require_count


@dataclass
class ClientTask:
    """One unit of round work: receive the broadcast, train, ship the update."""

    client: FLClient
    link: ClientLink
    broadcast_state: Mapping[str, np.ndarray]
    learning_rate: float
    #: Modelled seconds for this client to *receive* the broadcast over its
    #: own downlink; folded into the turnaround so schedulers see the full
    #: receive → train → transmit window.
    downlink_seconds: float = 0.0
    #: A :class:`repro.fl.scenarios.ClientCrash` (the client dies mid-round:
    #: raised instead of training, surfacing as a dropped update with zero
    #: payload bytes) or a :class:`repro.fl.scenarios.CorruptedUpload`.
    fault: Optional[BaseException] = None
    #: The round's shared wire buffer (built once per round by the runtime's
    #: :class:`~repro.fl.broadcast.BroadcastCache` when the executor sets
    #: ``wants_broadcast_payload``); ``None`` for in-process executors, which
    #: share ``broadcast_state`` by reference.
    broadcast_payload: Optional[BroadcastPayload] = None


@dataclass
class ClientResult:
    """Everything one client produced during a round."""

    client_id: int
    update: ClientUpdate
    state: Optional[Dict[str, np.ndarray]]
    stats: TransferStats
    turnaround_seconds: float

    @property
    def delivered(self) -> bool:
        """Did the update actually reach the server?"""
        return self.stats.delivered and self.state is not None


def _client_result(task: ClientTask, update: ClientUpdate, state, stats) -> ClientResult:
    """Build a :class:`ClientResult`; the turnaround is the client's full
    receive → train → compress → transmit → decompress window."""
    return ClientResult(
        client_id=update.client_id,
        update=update,
        state=state,
        stats=stats,
        turnaround_seconds=(
            task.downlink_seconds
            + update.train_seconds
            + stats.compress_seconds
            + stats.transfer_seconds
            + stats.decompress_seconds
        ),
    )


def crashed_client_result(task: ClientTask) -> ClientResult:
    """The :class:`ClientResult` of a client that died mid-round.

    The client never trained or transmitted: zero payload bytes, zero codec
    and transfer time, ``delivered=False`` — its turnaround is just the
    broadcast receive time.
    """
    client = task.client
    update = ClientUpdate(client.client_id, {}, client.num_samples, 0.0, 0.0, 0.0)
    return _client_result(task, update, None, TransferStats(delivered=False))


def _train(task: ClientTask) -> Optional[ClientUpdate]:
    """Train one task's client on the broadcast state; ``None`` if it crashed.

    A :class:`~repro.fl.scenarios.ClientCrash` fault fires *before* any
    stream advances — the client died without training, rolling dropout or
    touching the channel — so crashed runs stay bit-identical across
    executors.  A :class:`~repro.fl.scenarios.CorruptedUpload` client trains
    and transmits normally, but the server's frame check rejects what
    arrives.
    """
    try:
        if not _trains(task):
            raise task.fault
        return task.client.train(task.broadcast_state, learning_rate=task.learning_rate)
    except ClientCrash:
        return None


def _trains(task: ClientTask) -> bool:
    """Whether the task's client trains: it has no fault, or a corrupted upload."""
    return task.fault is None or isinstance(task.fault, CorruptedUpload)


def _code(codec, job) -> UploadRecord:
    """One :func:`encode_upload` partial on a lane's codec."""
    return job(codec)


def _codes_behind_training(tasks: List[ClientTask], codec) -> bool:
    """Whether helper lanes start coding at round start, behind training.

    Only if an upload releases the GIL long enough to overlap the caller's
    training — :func:`~repro.core.pipeline.codes_off_the_gil`, asked once
    on the broadcast state, whose names and shapes every update shares.
    """
    config = getattr(codec, "config", None)
    return isinstance(config, FedSZConfig) and codes_off_the_gil(tasks[0].broadcast_state, config)


def _hand_back_last_report(codec, results: List[ClientResult]) -> None:
    """Facade contract: after a round the caller's codec reports the last
    participant's compression.  Lanes and workers compressed on clones; a
    one-lane run's codec already holds it (and may expose it read-only)."""
    reports = [result.stats.report for result in results if result.stats.report is not None]
    if reports and getattr(codec, "last_report", None) is not reports[-1]:
        codec.last_report = reports[-1]


def _settle(tasks, updates, uploads, codec) -> List[ClientResult]:
    """The link halves of a round's uploads, in task order; ``updates[i]`` and
    ``uploads[i]`` are ``None`` where task ``i``'s client crashed."""
    results = []
    for task, update, upload in zip(tasks, updates, uploads, strict=True):
        if update is None:
            results.append(crashed_client_result(task))
        else:
            stats = account_upload(task.link, upload)
            results.append(_client_result(task, update, upload.received_state, stats))
    _hand_back_last_report(codec, results)
    return results


class SerialExecutor:
    """Train clients in task order; code their uploads on one lane per core."""

    name = "serial"

    def run_clients(self, tasks: List[ClientTask], codec=None) -> List[ClientResult]:
        """Train in task order, code the surviving updates — behind training
        where the gate allows — and settle them in task order."""
        updates: List[Optional[ClientUpdate]] = []

        def jobs():
            for task in tasks:
                update = _train(task)
                updates.append(update)
                if update is not None:
                    corrupted = isinstance(task.fault, CorruptedUpload)
                    dropped = not corrupted and task.link.roll_dropout()
                    yield partial(encode_upload, update.state_dict, spec=task.link.spec,
                                  dropped=dropped, corrupted=corrupted)

        width = pool_width(sum(map(_trains, tasks))) if hasattr(codec, "clone") else 1
        stream = jobs()
        if width == 1 or not _codes_behind_training(tasks, codec):
            stream = list(stream)  # every client trains before any upload codes
        if width == 1:
            encoded = iter([job(codec) for job in stream])
        else:
            encoded = iter(run_lanes(stream, _code, width, lambda _: codec.clone()))
        uploads = [None if update is None else next(encoded) for update in updates]
        return _settle(tasks, updates, uploads, codec)


# ----------------------------------------------------------------------
# Process-parallel execution
# ----------------------------------------------------------------------
@dataclass
class _WorkerContext:
    """Everything a worker process needs to rebuild its slice of the fleet.

    Inherited through ``fork`` (never pickled), so ``model_fn`` may be any
    callable — including the test suites' lambdas — and ``datasets`` / ``seeds``
    are the runtime's own lazy sequences: each worker cuts only the shards of
    the clients it is handed.
    """

    model_fn: object
    datasets: Sequence
    config: object
    seeds: Sequence
    codec: object


@dataclass
class _ClientTaskSpec:
    """Picklable description of one client task shipped to a worker.

    Carries ids, seeds and specs instead of live objects: the worker rebuilds
    the client from its own registry, restores the shipped RNG snapshot,
    trains, and ships the advanced snapshot back.  The parent pre-rolled this
    link's dropout (``dropped``) so the per-link stream stays parent-owned.
    """

    index: int
    client_id: int
    learning_rate: float
    link_spec: LinkSpec
    dropped: bool
    client_state: dict
    #: A :class:`ClientCrash` (raised instead of training) or a
    #: :class:`CorruptedUpload` (train normally, corrupt the wire bytes);
    #: both are picklable via ``__reduce__``.
    fault: Optional[BaseException] = None


@dataclass
class _WorkerTaskResult:
    """What a worker ships back for one task: the trained update and the
    codec half of its upload (the parent, owner of the links, runs the link
    half).  A crashed client has neither."""

    index: int
    client_state: Optional[dict] = None
    update: Optional[ClientUpdate] = None
    upload: Optional[UploadRecord] = None


def _execute_spec(spec: _ClientTaskSpec, registry, codec, broadcast_state):
    """Worker-side body of one client task: train, then the upload's codec
    half (the parent runs the link half)."""
    corrupted = isinstance(spec.fault, CorruptedUpload)
    if spec.fault is not None and not corrupted:
        raise spec.fault
    client = registry[spec.client_id]
    client.restore_checkpoint_state(spec.client_state)
    update = client.train(broadcast_state, learning_rate=spec.learning_rate)
    upload = encode_upload(
        update.state_dict,
        codec,
        spec.link_spec,
        dropped=spec.dropped,
        corrupted=corrupted,
    )
    return _WorkerTaskResult(spec.index, client.checkpoint_state(), update, upload)


def _openblas_threads(verb: str, *args):
    """Call numpy's bundled OpenBLAS ``<verb>_num_threads``; ``None`` without one."""
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*.so*")):
        library = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            function = getattr(library, f"{prefix}openblas_{verb}_num_threads{suffix}", None)
            if function is not None:
                function.argtypes = [ctypes.c_int] * len(args)
                function.restype = ctypes.c_int if verb == "get" else None
                return function(*args)
    return None


def _process_worker_main(worker_id, context, inbox, task_queue, result_queue):
    """Worker loop: decode each round's broadcast once, then drain tasks.

    One registry, one model pool (a worker runs its tasks serially, so it
    builds one model) and one codec clone live for the whole pool lifetime.
    Each round message carries that round's broadcast, decoded once for all
    of the round's tasks this worker takes; the idle ack that closes the
    round names the worker.  BLAS is pinned to one thread first, or workers
    oversubscribe the host (a 4-client tiny round on 2 vCPUs: 0.19 s
    unpinned, 0.05 s pinned).
    """
    _openblas_threads("set", 1)
    registry = ClientRegistry(
        context.model_fn,
        context.datasets,
        context.config,
        context.seeds,
        ModelPool(context.model_fn),
    )
    codec = context.codec.clone() if context.codec is not None else None
    while True:
        message = pickle.loads(inbox.get())
        if message[0] == "stop":
            return
        broadcast_state = message[1].decode(codec)
        while True:
            spec = pickle.loads(task_queue.get())
            if spec is None:
                break
            try:
                try:
                    result = _execute_spec(spec, registry, codec, broadcast_state)
                except ClientCrash:
                    result = _WorkerTaskResult(spec.index)
                message = _pickled(("result", result))
            except BaseException:
                message = _pickled(("error", spec.index, spec.client_id, traceback.format_exc()))
            result_queue.put(message)
        result_queue.put(_pickled(("idle", worker_id)))


def _pickled(message) -> bytes:
    """``message`` pickled on the calling thread.

    ``multiprocessing.Queue.put`` pickles on a feeder thread that prints what
    it cannot pickle and drops it, so an unpicklable task spec or worker
    result would leave its receiver waiting for it forever; pickled here, it
    fails its task instead.  Both sides put only such bytes: workers unpickle
    in :func:`_process_worker_main`, the parent in
    :meth:`ProcessParallelExecutor._collect`.
    """
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


class ProcessParallelExecutor:
    """Run clients on a persistent pool of shared-nothing worker processes.

    Must be bound to a runtime (``FederatedRuntime`` does this at
    construction) so workers can rebuild the client population from its
    dataset partition and seeds.  Requires the ``fork`` start method (model
    factories are arbitrary callables, inherited rather than pickled) and a
    codec that is either ``None`` or exposes ``clone()`` — stateful codecs
    whose streams are consumed in call order cannot run shared-nothing.

    Determinism: workers only ever touch per-client streams, shipped in and
    out as RNG snapshots; the parent pre-rolls link dropout and replays
    channel sends in task order (see the module docstring), so results are
    bit-identical to :class:`SerialExecutor`.
    """

    name = "process"
    #: Ask the runtime to build the once-per-round broadcast wire buffer.
    wants_broadcast_payload = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None:
            require_count("max_workers", max_workers)
        self.max_workers = max_workers or os.cpu_count() or 1
        self._context: Optional[_WorkerContext] = None
        self._procs: list = []
        self._inboxes: list = []
        self._task_queue = None
        self._result_queue = None
        self._pool_fingerprint = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind_runtime(self, runtime) -> None:
        """Capture what workers need to rebuild the client population."""
        self._validate_codec(runtime.codec)
        if self._procs:
            self.close()  # re-bind: the old pool serves a stale fleet
        clients = runtime.clients
        self._context = _WorkerContext(
            model_fn=clients._model_fn,
            datasets=clients.datasets,
            config=clients._config,
            seeds=clients.seeds,
            codec=runtime.codec,
        )

    @staticmethod
    def _validate_codec(codec) -> None:
        if codec is not None and not hasattr(codec, "clone"):
            raise ValueError(
                f"{type(codec).__name__} has no clone() and cannot run "
                "shared-nothing: its internal streams are consumed in call "
                "order, which worker processes cannot reproduce — use the "
                "serial executor for this codec"
            )

    def _start_pool(self, codec) -> None:
        if self._context is None:
            raise RuntimeError(
                "ProcessParallelExecutor is not bound to a runtime; construct "
                "the FederatedRuntime with this executor (it binds "
                "automatically) before running clients"
            )
        self._validate_codec(codec)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ProcessParallelExecutor requires the 'fork' start method "
                "(unavailable on this platform); use the serial executor"
            )
        ctx = multiprocessing.get_context("fork")
        context = replace(self._context, codec=codec)
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        self._inboxes = [ctx.Queue() for _ in range(self.max_workers)]
        self._procs = []
        for worker_id, inbox in enumerate(self._inboxes):
            proc = ctx.Process(
                target=_process_worker_main,
                args=(worker_id, context, inbox, self._task_queue, self._result_queue),
                daemon=True,
                name=f"fl-worker-{worker_id}",
            )
            proc.start()
            self._procs.append(proc)
        self._pool_fingerprint = codec_fingerprint(codec)

    def close(self) -> None:
        """Shut the worker pool down; the next round restarts it lazily."""
        for inbox in self._inboxes:
            try:
                inbox.put(_pickled(("stop",)))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in [self._task_queue, self._result_queue, *self._inboxes]:
            if q is not None:
                q.cancel_join_thread()
                q.close()
        self._procs = []
        self._inboxes = []
        self._task_queue = None
        self._result_queue = None
        self._pool_fingerprint = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:  # raising in __del__ at interpreter shutdown is worse
            pass

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def run_clients(self, tasks: List[ClientTask], codec=None) -> List[ClientResult]:
        """Dispatch tasks to the worker pool; results come back in task order."""
        if not tasks:
            return []
        if self._procs and codec_fingerprint(codec) != self._pool_fingerprint:
            # The codec was swapped mid-run; worker clones are stale.
            self.close()
        if not self._procs:
            self._start_pool(codec)

        # Dropout is pre-rolled here, in task order: the per-link streams are
        # parent-owned, and a faulted client never rolls (serial parity — see
        # SerialExecutor.run_clients).
        specs = [
            _ClientTaskSpec(
                index=index,
                client_id=task.client.client_id,
                learning_rate=task.learning_rate,
                link_spec=task.link.spec,
                dropped=task.fault is None and task.link.roll_dropout(),
                client_state=task.client.checkpoint_state(),
                fault=task.fault,
            )
            for index, task in enumerate(tasks)
        ]

        # Pickled here, before any put: the queue's feeder thread would drop
        # an unpicklable spec and leave the round waiting for its result.
        round_message = _pickled(("round", tasks[0].broadcast_payload))
        wire_specs = []
        for spec in specs:
            try:
                wire_specs.append(_pickled(spec))
            except Exception as error:
                self.close()
                raise RuntimeError(
                    f"task spec of client {spec.client_id} (task {spec.index}) "
                    f"cannot be sent to a worker: {error}"
                ) from error
        for inbox in self._inboxes:
            inbox.put(round_message)
        for wire_spec in wire_specs:
            self._task_queue.put(wire_spec)
        for _ in self._procs:
            self._task_queue.put(_pickled(None))

        raw_results, errors = self._collect(len(specs))
        if errors:
            self.close()  # a failed round leaves the pool in an unknown state
            details = "\n\n".join(
                f"client {client_id} (task {index}):\n{tb}"
                for index, client_id, tb in errors
            )
            raise RuntimeError(f"worker task(s) failed:\n{details}")

        done = [raw_results[index] for index in range(len(tasks))]
        for task, result in zip(tasks, done, strict=True):
            if result.update is not None:
                # Advanced client streams back: checkpoints stay bit-identical.
                task.client.restore_checkpoint_state(result.client_state)
        return _settle(tasks, [r.update for r in done], [r.upload for r in done], codec)

    def _collect(self, expected_results: int):
        """Drain one round's results and idle acks, watching worker liveness."""
        raw_results: Dict[int, _WorkerTaskResult] = {}
        errors = []
        pending_acks = len(self._procs)
        while len(raw_results) + len(errors) < expected_results or pending_acks:
            try:
                message = pickle.loads(self._result_queue.get(timeout=1.0))
            except queue_module.Empty:
                dead = [proc.name for proc in self._procs if not proc.is_alive()]
                if dead:
                    self.close()
                    raise RuntimeError(
                        f"worker process(es) died mid-round: {', '.join(dead)}; "
                        "the pool was shut down and will restart on the next "
                        "round"
                    ) from None
                continue
            kind = message[0]
            if kind == "result":
                raw_results[message[1].index] = message[1]
            elif kind == "error":
                errors.append(message[1:])
            else:  # idle ack: the worker has drained the round
                pending_acks -= 1
        return raw_results, errors


def build_executor(name: str = "serial", max_workers: Optional[int] = None):
    """Build an executor by short name (the ``FLConfig.executor`` values)."""
    key = name.lower().replace("_", "-")
    if key == "serial":
        return SerialExecutor()
    if key == "process":
        return ProcessParallelExecutor(max_workers=max_workers)
    raise ValueError(f"unknown executor {name!r}; available: 'serial', 'process'")
