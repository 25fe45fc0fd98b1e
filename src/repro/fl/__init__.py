"""Federated-learning runtime (the APPFL/FedAvg stand-in), in three layers.

:meth:`FederatedRuntime.run` is the run loop: a round, then a checkpoint if
one is due, then the fault injector.  The engine (:mod:`repro.fl.events`) runs
each round over an incrementally kept reachable-client set; around it the
runtime separates the three concerns a real FL stack separates:

* **scheduler** (:mod:`repro.fl.scheduler`) — what a round means, decided
  from the round's results: synchronous FedAvg, semi-synchronous with a
  straggler deadline, or asynchronous staleness-weighted mixing;
* **executor** (:mod:`repro.fl.executor`) — how client work runs: trained in
  sequence with uploads coded on one lane per core (:class:`SerialExecutor`),
  or on a persistent shared-nothing worker-process pool
  (:class:`ProcessParallelExecutor`), fed one broadcast payload a round
  (:mod:`repro.fl.broadcast`);
* **transport** (:mod:`repro.fl.transport`) — what each client's link looks
  like: one shared channel or heterogeneous per-client bandwidth, latency,
  straggler and dropout profiles, optionally backed by a device profile for
  codec-runtime modelling.

:class:`FederatedRuntime` composes the layers.  Clients
run local SGD on private synthetic data, the server aggregates and validates
the global model, and every client update is routed through a pluggable codec
(FedSZ or the uncompressed baseline) over its link.
"""

from repro.fl.aggregation import fedavg, mix_states
from repro.fl.broadcast import BroadcastCache, BroadcastPayload
from repro.fl.checkpoint import (
    CheckpointError,
    RunCheckpoint,
    capture_runtime,
    codec_fingerprint,
    fired_crash_rounds,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    record_crash_marker,
    restore_runtime,
    write_checkpoint,
)
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.config import FLConfig
from repro.fl.executor import (
    ClientResult,
    ClientTask,
    ProcessParallelExecutor,
    SerialExecutor,
    build_executor,
)
from repro.fl.history import ClientRoundStat, RoundRecord, TrainingHistory
from repro.fl.runtime import DownlinkStats, FederatedRuntime, RoundContext
from repro.fl.scenarios import (
    ClientCrash,
    ClientCrashSchedule,
    DiurnalSchedule,
    FaultInjector,
    FlashCrowdSchedule,
    FleetScenario,
    FullParticipation,
    ParticipationSchedule,
    ServerCrashSchedule,
    SimulatedCrash,
    available_scenarios,
    build_fleet_runtime,
    build_schedule,
    get_scenario,
)
from repro.fl.scheduler import (
    AsynchronousScheduler,
    RoundScheduler,
    SemiSynchronousScheduler,
    SynchronousScheduler,
    get_scheduler,
)
from repro.fl.server import EvaluationResult, FLServer
from repro.fl.state import ClientRegistry, ModelPool
from repro.fl.transport import (
    ClientLink,
    LinkSpec,
    Transport,
    TransferStats,
    edge_fleet_specs,
)

__all__ = [
    "fedavg",
    "mix_states",
    "ClientUpdate",
    "FLClient",
    "FLConfig",
    "ClientResult",
    "ClientTask",
    "ProcessParallelExecutor",
    "SerialExecutor",
    "build_executor",
    "BroadcastCache",
    "BroadcastPayload",
    "codec_fingerprint",
    "ClientRoundStat",
    "RoundRecord",
    "TrainingHistory",
    "FederatedRuntime",
    "RoundContext",
    "DownlinkStats",
    "ClientRegistry",
    "ModelPool",
    "CheckpointError",
    "RunCheckpoint",
    "capture_runtime",
    "restore_runtime",
    "write_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
    "record_crash_marker",
    "fired_crash_rounds",
    "FaultInjector",
    "ServerCrashSchedule",
    "SimulatedCrash",
    "ClientCrash",
    "ClientCrashSchedule",
    "ParticipationSchedule",
    "FullParticipation",
    "DiurnalSchedule",
    "FlashCrowdSchedule",
    "FleetScenario",
    "build_schedule",
    "available_scenarios",
    "get_scenario",
    "build_fleet_runtime",
    "AsynchronousScheduler",
    "RoundScheduler",
    "SemiSynchronousScheduler",
    "SynchronousScheduler",
    "get_scheduler",
    "EvaluationResult",
    "FLServer",
    "ClientLink",
    "LinkSpec",
    "Transport",
    "TransferStats",
    "edge_fleet_specs",
]
