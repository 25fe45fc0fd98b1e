"""The layered federated runtime: engine + scheduler + executor + transport.

:class:`FederatedRuntime` owns the server, the client population and the
round-by-round history.  :meth:`FederatedRuntime.run` is the run loop: a
round, then a checkpoint if one is due, then the fault injector, until the
target round count.  One **engine** (:mod:`repro.fl.events`) runs each round
over an incrementally maintained reachable-client set, and three orthogonal
concerns are pluggable layers around it:

* the **scheduler** (:mod:`repro.fl.scheduler`) decides what a round means —
  synchronous FedAvg, semi-synchronous with a straggler deadline, or
  asynchronous staleness-weighted mixing;
* the **executor** (:mod:`repro.fl.executor`) decides how client work runs —
  serially or on a pool of worker processes;
* the **transport** (:mod:`repro.fl.transport`) decides what each client's
  link looks like — one shared channel (the default) or heterogeneous
  per-client bandwidth/latency/straggler/dropout profiles.

The client population is **lazy** (:mod:`repro.fl.state`): client objects are
materialised on first access and models are borrowed from a
:class:`~repro.fl.state.ModelPool`, so a 256–1024-client fleet costs one
resident model per training process instead of O(num_clients).  An optional
**participation schedule** (:mod:`repro.fl.scenarios`) masks which clients
are available each round before sampling — diurnal availability, flash
crowds, and other fleet dynamics compose with every scheduler.

The default composition is sync + serial + one shared homogeneous channel +
always-available clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.data.datasets import SyntheticImageDataset
from repro.data.partition import partition_dataset
from repro.fl.broadcast import BroadcastCache, BroadcastPayload
from repro.fl.client import FLClient
from repro.fl.config import FLConfig, participant_count
from repro.fl.events import FleetEngine
from repro.fl.executor import ClientResult, ClientTask, build_executor
from repro.fl.history import ClientRoundStat, RoundRecord, TrainingHistory
from repro.fl.scheduler import RoundScheduler, SynchronousScheduler
from repro.fl.server import FLServer
from repro.fl.state import ClientRegistry, ModelPool
from repro.fl.transport import Transport, codec_error_bound
from repro.nn.module import Module
from repro.utils.seeding import SeedSequenceFactory
from repro.utils.validation import require_count


def _measured_codec_seconds(stats) -> float:
    """Measured per-tensor codec seconds behind one transfer, if reported.

    FedSZ reports carry a per-tensor compress-time map (the codec-kernel wall,
    as opposed to the whole-pipeline ``compress_seconds``); codecs without one
    (identity baseline, custom codecs) contribute 0.0 and downstream consumers
    fall back to the aggregate timing.
    """
    report = getattr(stats, "report", None)
    per_tensor = getattr(report, "per_tensor_compress_seconds", None)
    if not per_tensor:
        return 0.0
    return float(sum(per_tensor.values()))


@dataclass
class DownlinkStats:
    """Accounting for one round's broadcast phase.

    ``per_client_seconds[i]`` is the simulated time until client ``i`` holds
    the broadcast: its own link time when links are independent (they
    transmit in parallel), or its cumulative queue position on a shared
    homogeneous channel (the copies ship back to back, so later clients wait
    for earlier ones).  ``wallclock_seconds`` is the max over those waits —
    when the last participant can start training.  ``aggregate_seconds`` is
    the sum of per-link transmission times — the server-egress view.
    """

    payload_nbytes: int = 0
    total_bytes: int = 0
    per_client_seconds: Dict[int, float] = field(default_factory=dict)
    wallclock_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    #: Measured codec seconds spent preparing the broadcast itself (non-zero
    #: only with ``compress_downlink``): the server-side compress and the
    #: reference decompress clients train against.
    compress_seconds: float = 0.0
    decompress_seconds: float = 0.0


@dataclass
class RoundContext:
    """Everything prepared before client execution starts."""

    round_index: int
    participants: List[FLClient]
    broadcast_state: Dict[str, np.ndarray]
    learning_rate: float
    downlink: DownlinkStats
    tasks: List[ClientTask] = field(default_factory=list)
    #: The round's single wire buffer (``None`` unless the executor asked for
    #: one via ``wants_broadcast_payload``); shared by every task.
    broadcast_payload: Optional[BroadcastPayload] = None

    @property
    def downlink_bytes(self) -> int:
        """Total broadcast bytes across participants."""
        return self.downlink.total_bytes

    @property
    def downlink_seconds(self) -> float:
        """Simulated broadcast wall-clock (see :class:`DownlinkStats`)."""
        return self.downlink.wallclock_seconds


class FederatedRuntime:
    """Composable federated training runtime (see module docstring)."""

    def __init__(
        self,
        model_fn: Callable[[], Module],
        train_dataset: SyntheticImageDataset,
        validation_dataset: SyntheticImageDataset,
        config: Optional[FLConfig] = None,
        codec=None,
        scheduler: Optional[RoundScheduler] = None,
        executor=None,
        transport: Optional[Transport] = None,
        schedule=None,
        fault_injector=None,
        client_faults=None,
        monitor=None,
    ) -> None:
        self.config = config or FLConfig()
        self.codec = codec
        self.transport = transport or Transport.homogeneous(
            bandwidth_mbps=self.config.bandwidth_mbps
        )
        self.transport.require_modellable(codec)
        self.scheduler = scheduler or SynchronousScheduler()
        if executor is not None and not callable(getattr(executor, "run_clients", None)):
            raise TypeError(
                f"executor must be an executor object, got {executor!r}; "
                "name one with FLConfig(executor=...)"
            )
        # An explicit executor object wins; otherwise the config names one
        # (``executor="serial"`` by default, so default runs are unchanged).
        self.executor = executor or build_executor(
            self.config.executor, self.config.max_workers
        )
        #: Optional per-round availability mask (see :mod:`repro.fl.scenarios`).
        self.schedule = schedule
        #: Optional per-round failure hook (see
        #: :class:`repro.fl.scenarios.FaultInjector`); consulted by :meth:`run`
        #: after each round's checkpoint is persisted.
        self.fault_injector = fault_injector
        #: Optional per-(round, client) fault source (see
        #: :class:`repro.fl.scenarios.ClientCrashSchedule`): consulted while
        #: building each round's tasks, attaching a fault to doomed clients.
        self.client_faults = client_faults
        #: Once-per-round broadcast preparation (see :mod:`repro.fl.broadcast`).
        self.broadcast_cache = BroadcastCache()
        #: Optional :class:`repro.obs.RunMonitor`.  Strictly passive — it only
        #: ever *reads* completed round records, never touches an
        #: RNG stream — so a monitored run is bit-identical to an unmonitored
        #: one (asserted in ``tests/obs/test_monitor_server.py``).
        self.monitor = monitor

        # Seed-derivation order is fixed (partition, clients, sampling, then
        # transport): histories and checkpoints are keyed to it.
        seeds = SeedSequenceFactory(self.config.seed)
        client_datasets = partition_dataset(
            train_dataset,
            self.config.num_clients,
            strategy=self.config.partition_strategy,
            alpha=self.config.dirichlet_alpha,
            seed=seeds.next_seed(),
        )
        self.server = FLServer(
            model_fn, validation_dataset, eval_batch_size=self.config.eval_batch_size
        )
        client_seeds = seeds.spawn(len(client_datasets))
        self.model_pool = ModelPool(model_fn)
        self.clients = ClientRegistry(
            model_fn, client_datasets, self.config, client_seeds, self.model_pool
        )
        self.history = TrainingHistory()
        self._sampling_rng = np.random.default_rng(seeds.next_seed())

        self.transport.bind(len(self.clients), seed=seeds.next_seed())

        # Executors with worker processes need the client-population recipe
        # (model factory, partition, seeds) to rebuild it on their side.
        bind = getattr(self.executor, "bind_runtime", None)
        if callable(bind):
            bind(self)

        #: Runs each round (:mod:`repro.fl.events`), keeping the eligible set
        #: incrementally from availability transitions.
        self.engine = FleetEngine(self)

    def close(self) -> None:
        """Release executor resources (worker processes); idempotent.

        The serial executor holds nothing and makes this a no-op, so callers
        can ``close()`` unconditionally.
        """
        close = getattr(self.executor, "close", None)
        if callable(close):
            close()

    # ------------------------------------------------------------------
    # Round loop
    # ------------------------------------------------------------------
    def run(
        self,
        rounds: Optional[int] = None,
        *,
        checkpoint_dir: Optional[Path | str] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        keep_checkpoints: int = 3,
        fault_injector=None,
    ) -> TrainingHistory:
        """Run communication rounds, optionally crash-safe.

        Without checkpoint arguments this behaves as it always has: ``rounds``
        more rounds are executed (defaulting to the configured count).

        With ``checkpoint_dir`` set, a :class:`~repro.fl.checkpoint.RunCheckpoint`
        is written atomically after every ``checkpoint_every``-th round (and
        always after the final one), keeping the newest ``keep_checkpoints``
        snapshots.  With ``resume=True`` the latest snapshot in
        ``checkpoint_dir`` is restored first — the runtime must have been
        constructed with the same configuration, scheduler, schedule and
        transport as the crashed run — and ``rounds`` becomes the *absolute*
        round target for the whole run (again defaulting to the configured
        count), so the call executes only the rounds the crash swallowed.
        Resume is bit-identical: final weights and all simulation-determined
        history fields match an uninterrupted run exactly.  When no snapshot
        exists yet, ``resume=True`` simply starts from round zero — the flag
        is safe to pass unconditionally on every (re)launch.

        ``fault_injector`` (defaulting to the one the runtime was constructed
        with, e.g. a :class:`~repro.fl.scenarios.ServerCrashSchedule`) is
        consulted *after* each round's checkpoint is persisted — the
        worst-case crash point — and may raise to kill the run.

        ``rounds`` must be ``None`` or a non-negative integer, and
        ``checkpoint_every`` and ``keep_checkpoints`` positive integers; anything
        else raises ``ValueError`` before a round trains.
        """
        if rounds is not None:
            require_count("rounds", rounds, minimum=0)
        require_count("checkpoint_every", checkpoint_every)
        require_count("keep_checkpoints", keep_checkpoints)
        injector = fault_injector if fault_injector is not None else self.fault_injector
        directory = Path(checkpoint_dir) if checkpoint_dir is not None else None
        monitor = self.monitor

        if resume:
            from repro.fl.checkpoint import (
                fired_crash_rounds,
                latest_checkpoint,
                load_checkpoint,
                restore_runtime,
            )

            if directory is None:
                raise ValueError("resume=True requires checkpoint_dir")
            latest = latest_checkpoint(directory)
            if latest is not None:
                restore_runtime(self, load_checkpoint(latest))
            # One-shot fault schedules must not re-fire for crashes that
            # already happened: a crash round that fell between sparse
            # checkpoints — or before the very first checkpoint, in which
            # case there is no snapshot at all — is re-executed on resume and
            # would otherwise be re-crashed by every resume attempt.  The
            # durable markers say exactly which crashes fired.
            on_resume = getattr(injector, "on_resume", None)
            if callable(on_resume):
                on_resume(len(self.history), fired_crash_rounds(directory))
            target = rounds if rounds is not None else self.config.rounds
        else:
            target = len(self.history) + (
                rounds if rounds is not None else self.config.rounds
            )

        if monitor is not None:
            monitor.run_started(self, target_rounds=target)
        try:
            while len(self.history) < target:
                self.run_round()
                completed = len(self.history)
                if directory is not None and (
                    completed % checkpoint_every == 0 or completed >= target
                ):
                    self._write_checkpoint(directory, keep_checkpoints)
                if injector is not None:
                    self._consult_injector(injector, completed - 1, directory)
        except BaseException as error:
            if monitor is not None:
                monitor.run_finished(status="crashed", error=error)
            raise
        if monitor is not None:
            monitor.run_finished(status="completed")
        return self.history

    def _write_checkpoint(self, directory: Path, keep_checkpoints: int) -> None:
        """Persist a checkpoint for the last completed round."""
        from repro.fl.checkpoint import capture_runtime, write_checkpoint

        path = write_checkpoint(
            capture_runtime(self), directory, keep_last=keep_checkpoints
        )
        if self.monitor is not None:
            self.monitor.checkpoint_written(len(self.history) - 1, path)

    def _consult_injector(self, injector, round_index: int, directory) -> None:
        """Give the fault injector its post-checkpoint shot at ``round_index``."""
        try:
            injector.after_round(round_index)
        except BaseException as fault:
            # Leave a durable trace of the simulated failure so a resumed
            # process knows this one-shot event already fired (real crashes
            # need no such bookkeeping — only simulated ones are
            # re-executable).
            fault_round = getattr(fault, "round_index", None)
            if directory is not None and fault_round is not None:
                from repro.fl.checkpoint import record_crash_marker

                record_crash_marker(directory, fault_round)
            if self.monitor is not None:
                self.monitor.fault_injected(round_index, fault)
            raise

    def run_round(self) -> RoundRecord:
        """Execute one round under the configured scheduler."""
        return self.engine.run_round()

    # ------------------------------------------------------------------
    # Scheduler-facing primitives
    # ------------------------------------------------------------------
    def start_round(self, eligible: Optional[np.ndarray] = None) -> RoundContext:
        """Sample participants, broadcast the global state, build client tasks.

        ``eligible`` is the engine's reachable-client set (sorted ids) under
        the participation schedule; ``None`` means the whole fleet.
        """
        round_index = len(self.history)
        participants = self._sample_clients(eligible)
        learning_rate = (
            self.config.learning_rate * self.config.learning_rate_decay**round_index
        )
        broadcast_state, downlink, payload = self._broadcast(participants)
        context = RoundContext(
            round_index=round_index,
            participants=participants,
            broadcast_state=broadcast_state,
            learning_rate=learning_rate,
            downlink=downlink,
            broadcast_payload=payload,
        )
        context.tasks = [
            ClientTask(
                client=client,
                link=self.transport.uplink(client.client_id),
                broadcast_state=broadcast_state,
                learning_rate=learning_rate,
                downlink_seconds=downlink.per_client_seconds.get(client.client_id, 0.0),
                fault=(
                    self.client_faults.fault_for(round_index, client.client_id)
                    if self.client_faults is not None
                    else None
                ),
                broadcast_payload=payload,
            )
            for client in participants
        ]
        return context

    def execute_clients(self, context: RoundContext) -> List[ClientResult]:
        """Run the round's client tasks through the executor layer."""
        return self.executor.run_clients(context.tasks, codec=self.codec)

    def finish_round(
        self,
        context: RoundContext,
        results: List[ClientResult],
        aggregated_ids,
        round_seconds: float,
        client_weights: Optional[Dict[int, float]] = None,
        client_staleness: Optional[Dict[int, int]] = None,
    ) -> RoundRecord:
        """Evaluate the global model and append the round record."""
        evaluation = self.server.evaluate()
        client_weights = client_weights or {}
        client_staleness = client_staleness or {}

        # Bound-pressure accounting: how much of the codec's error bound each
        # delivered update actually consumed, per tensor, as the upload's codec
        # half measured it.  Feeds the observability layer's near-violation
        # ranking (repro.obs.report).
        error_bound, bound_mode = codec_error_bound(self.codec)
        client_utilization: Dict[int, float] = {}
        tensor_utilization: Dict[str, float] = {}
        for result in results:
            per_tensor = result.stats.bound_utilization
            if per_tensor:
                client_utilization[result.client_id] = max(per_tensor.values())
            for name, value in per_tensor.items():
                tensor_utilization[name] = max(tensor_utilization.get(name, 0.0), value)

        client_stats = [
            ClientRoundStat(
                client_id=result.client_id,
                num_samples=result.update.num_samples,
                train_loss=result.update.train_loss,
                train_accuracy=result.update.train_accuracy,
                train_seconds=result.update.train_seconds,
                compress_seconds=result.stats.compress_seconds,
                decompress_seconds=result.stats.decompress_seconds,
                measured_codec_seconds=_measured_codec_seconds(result.stats),
                transfer_seconds=result.stats.transfer_seconds,
                payload_nbytes=result.stats.payload_nbytes,
                compression_ratio=result.stats.ratio,
                downlink_seconds=context.downlink.per_client_seconds.get(
                    result.client_id, 0.0
                ),
                turnaround_seconds=result.turnaround_seconds,
                delivered=result.delivered,
                aggregated=result.client_id in aggregated_ids,
                staleness=client_staleness.get(result.client_id, 0),
                weight=client_weights.get(result.client_id, 0.0),
                bound_utilization=client_utilization.get(result.client_id, 0.0),
            )
            for result in results
        ]

        ratios = [result.stats.ratio for result in results]
        record = RoundRecord(
            round_index=context.round_index,
            global_accuracy=evaluation.accuracy,
            global_loss=evaluation.loss,
            mean_client_loss=(
                float(np.mean([r.update.train_loss for r in results])) if results else 0.0
            ),
            mean_client_accuracy=(
                float(np.mean([r.update.train_accuracy for r in results]))
                if results
                else 0.0
            ),
            # Only delivered updates contribute uplink bytes: a payload lost in
            # transit never reached the server, so counting it would overstate
            # the ingress the run actually paid for.  Transfer *time* still
            # sums over every attempt — the link was occupied (and synchronous
            # servers wait out the window) whether or not the bytes arrived.
            uplink_bytes=sum(
                result.stats.payload_nbytes for result in results if result.delivered
            ),
            uplink_seconds=float(sum(result.stats.transfer_seconds for result in results)),
            compression_seconds=float(sum(r.stats.compress_seconds for r in results)),
            decompression_seconds=float(sum(r.stats.decompress_seconds for r in results)),
            measured_codec_seconds=float(
                sum(_measured_codec_seconds(r.stats) for r in results)
            ),
            train_seconds=float(sum(r.update.train_seconds for r in results)),
            validation_seconds=evaluation.seconds,
            mean_compression_ratio=float(np.mean(ratios)) if ratios else 1.0,
            downlink_bytes=context.downlink.total_bytes,
            downlink_seconds=context.downlink.wallclock_seconds,
            downlink_aggregate_seconds=context.downlink.aggregate_seconds,
            broadcast_compress_seconds=context.downlink.compress_seconds,
            broadcast_decompress_seconds=context.downlink.decompress_seconds,
            participating_clients=len(context.participants),
            client_stats=client_stats,
            dropped_clients=sum(1 for result in results if not result.delivered),
            straggler_clients=sum(
                1
                for result in results
                if result.delivered and result.client_id not in aggregated_ids
            ),
            simulated_round_seconds=float(round_seconds),
            error_bound=error_bound,
            error_bound_mode=bound_mode,
            tensor_bound_utilization=tensor_utilization,
        )
        self.history.add(record)
        if self.monitor is not None:
            self.monitor.round_completed(record)
        return record

    # ------------------------------------------------------------------
    # Sampling and broadcast
    # ------------------------------------------------------------------
    def _sample_clients(self, eligible: Optional[np.ndarray] = None) -> List[FLClient]:
        """Sample this round's participants.

        ``eligible`` (sorted ids of the clients the participation schedule
        leaves reachable) restricts the pool first; sampling then draws
        ``participant_count(client_fraction, len(eligible))`` clients (an
        explicit ceiling — see :func:`repro.fl.config.participant_count`)
        from it, so participation tracks fleet availability.  With ``None``
        the count is taken over the whole fleet.
        """
        if eligible is not None and eligible.size == 0:
            return []

        if self.config.client_fraction >= 1.0:
            if eligible is None:
                return list(self.clients)
            return [self.clients[index] for index in eligible]

        if eligible is None:
            num_clients = len(self.clients)
            count = participant_count(self.config.client_fraction, num_clients)
            indices = self._sampling_rng.choice(num_clients, size=count, replace=False)
        else:
            count = participant_count(self.config.client_fraction, int(eligible.size))
            indices = self._sampling_rng.choice(eligible, size=count, replace=False)
        return [self.clients[index] for index in sorted(indices)]

    def _broadcast(self, participants: List[FLClient]) -> tuple:
        """Prepare the broadcast state and its downlink accounting.

        The paper compresses the uplink only; ``compress_downlink`` extends
        the codec to the broadcast path, in which case clients train on the
        state they actually receive (including the compression error).

        All serialization and codec work goes through the
        :class:`~repro.fl.broadcast.BroadcastCache`, so it happens **once per
        round**, with the codec seconds measured rather than burned untimed.
        The wire buffer (``payload``) is built only when the active executor
        asks for one (``wants_broadcast_payload``).

        Returns ``(state, DownlinkStats, payload_or_None)``.  Independent
        heterogeneous links broadcast in parallel, so the wall-clock is the
        slowest link's time; a shared homogeneous channel serialises the
        copies (the seed arithmetic), so each client's receive time is its
        cumulative queue position and the wall-clock is the full queue.
        """
        global_state = self.server.global_state()
        build_payload = bool(getattr(self.executor, "wants_broadcast_payload", False))
        state, nbytes, payload, compress_seconds, decompress_seconds = (
            self.broadcast_cache.round_state(
                global_state,
                self.codec,
                self.config.compress_downlink,
                build_payload=build_payload,
            )
        )

        transmission = {
            client.client_id: self.transport.downlink_seconds(nbytes, client.client_id)
            for client in participants
        }
        aggregate = float(sum(transmission.values()))
        if self.transport.is_homogeneous:
            # One shared channel ships the copies back to back: client i's
            # copy only starts once the previous i copies have gone out, so
            # its receive time is the cumulative queue position.
            per_client = {}
            elapsed = 0.0
            for client in participants:
                elapsed += transmission[client.client_id]
                per_client[client.client_id] = elapsed
            wallclock = elapsed
        else:
            per_client = transmission
            wallclock = max(per_client.values(), default=0.0)
        downlink = DownlinkStats(
            payload_nbytes=nbytes,
            total_bytes=nbytes * len(participants),
            per_client_seconds=per_client,
            wallclock_seconds=wallclock,
            aggregate_seconds=aggregate,
            compress_seconds=compress_seconds,
            decompress_seconds=decompress_seconds,
        )
        return state, downlink, payload

    @property
    def channel(self):
        """The shared channel for homogeneous transports (``None`` otherwise)."""
        return self.transport.channel
