"""Named fleet scenarios: presets + per-round participation schedules.

The paper's system-level claims are about communication at the *edge-fleet*
scale, so the runtime needs more than a flat four-client population: fleets
have heterogeneous links, clients come and go with the time of day, and
crowds join and leave in bursts.  This module packages those regimes as
named, reproducible presets:

* a **participation schedule** answers "which clients are reachable in round
  ``t``?" with a boolean availability mask (and its arrival/departure
  stream) that the engine (:mod:`repro.fl.events`) folds into the eligible
  set *before* ``client_fraction`` of it is sampled.  A run asks for the
  stream round after round, so a mask-drawing schedule keeps the last mask
  it drew and draws one mask a round, not two.  Round counts
  (``period_rounds``, ``join_round``, ``leave_round``) must be whole numbers
  and ``phase`` finite: the constructors reject what they would otherwise
  truncate;
* a :class:`FleetScenario` composes the schedule with
  :func:`repro.fl.transport.edge_fleet_specs` (link heterogeneity), a
  partition strategy, and a round scheduler into everything
  :class:`~repro.fl.runtime.FederatedRuntime` needs.

Presets (``available_scenarios()``):

* ``uniform-edge`` — a steady edge fleet cycling through typical edge uplink
  bandwidths; every client always reachable; synchronous FedAvg.
* ``diurnal`` — availability follows a day/night cosine, so round-by-round
  the reachable fraction swings between ``min_availability`` and
  ``max_availability``; semi-synchronous rounds.
* ``flash-crowd`` — a stable core fleet plus a crowd block that joins at
  ``join_round`` and leaves at ``leave_round``; asynchronous
  staleness-weighted mixing absorbs the burst.
* ``unreliable-server`` — a small edge fleet whose server *crashes* after
  round 2 (:class:`ServerCrashSchedule` raising :class:`SimulatedCrash`), the
  canonical workload for the checkpoint/resume subsystem
  (:mod:`repro.fl.checkpoint`).

Use :func:`get_scenario` / :func:`build_fleet_runtime`, or the CLI's
``fl --scenario`` flag.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.config import FLConfig
from repro.fl.scheduler import RoundScheduler, get_scheduler
from repro.fl.transport import Transport, edge_fleet_specs


# ----------------------------------------------------------------------
# Participation schedules
# ----------------------------------------------------------------------
def _round_count(field_name: str, value) -> int:
    """``value`` as an ``int`` round count; a fraction, a ``bool`` or a
    non-finite value is a ``ValueError`` naming ``field_name`` rather than a
    silent truncation."""
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        return int(value)
    raise ValueError(f"{field_name} must be a whole number of rounds, got {value!r}")


class ParticipationSchedule:
    """Per-round client availability: ``mask(t, n)[i]`` is True when client
    ``i`` is reachable in round ``t``.

    Masks must be a pure function of ``(round_index, num_clients)`` and the
    schedule's own seeded state so serial and worker-pool executions of the
    same run see identical fleets.
    """

    name = "base"
    #: ``(round_index, num_clients, mask)`` of the last mask :meth:`transitions`
    #: drew, so a run's next round diffs against it instead of redrawing it.
    _drawn: Optional[Tuple[int, int, np.ndarray]] = None

    def mask(self, round_index: int, num_clients: int) -> np.ndarray:
        """Boolean availability mask of shape ``(num_clients,)``."""
        raise NotImplementedError

    def transitions(
        self, round_index: int, num_clients: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(arrivals, departures)`` client-id arrays entering round ``round_index``.

        The availability transitions the engine (:mod:`repro.fl.events`)
        folds into its eligible set: ids that became reachable since the
        previous round and ids that dropped off.  Round 0 diffs against an
        empty fleet, so its arrivals are exactly ``nonzero(mask(0))``.
        Applying the stream incrementally reproduces every round's mask bit
        for bit (asserted in ``tests/fl/test_events.py``).

        The base implementation diffs two full masks — correct for any
        schedule, since masks are pure functions of their arguments.  It keeps
        the mask it drew for ``round_index``, so the next round in order draws
        one mask, not two; any other call order draws both.  Schedules whose
        dynamics are sparse (full participation, flash crowds) override this
        with O(transitions) streams so fleet-size work only happens when the
        fleet actually changes.
        """
        current = np.asarray(self.mask(round_index, num_clients), dtype=bool)
        drawn = self._drawn
        if round_index <= 0:
            previous = np.zeros(num_clients, dtype=bool)
        elif drawn is not None and drawn[:2] == (round_index - 1, num_clients):
            previous = drawn[2]
        else:
            previous = np.asarray(self.mask(round_index - 1, num_clients), dtype=bool)
        self._drawn = (round_index, num_clients, current)
        arrivals = np.nonzero(current & ~previous)[0]
        departures = np.nonzero(previous & ~current)[0]
        return arrivals, departures

    def state_dict(self) -> dict:
        """JSON-compatible fingerprint of this schedule's configuration.

        Masks are pure functions of ``(round_index, num_clients)`` plus the
        schedule's own seeded parameters, so nothing needs *restoring* on
        resume — but a checkpoint records the fingerprint and resume refuses a
        schedule that would reshape the fleet's availability mid-run.
        """
        return {"name": self.name}


class FullParticipation(ParticipationSchedule):
    """Every client reachable every round (the seed behaviour)."""

    name = "full"

    def mask(self, round_index: int, num_clients: int) -> np.ndarray:
        return np.ones(num_clients, dtype=bool)

    def transitions(
        self, round_index: int, num_clients: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        empty = np.empty(0, dtype=np.int64)
        if round_index <= 0:
            return np.arange(num_clients, dtype=np.int64), empty
        return empty, empty


class DiurnalSchedule(ParticipationSchedule):
    """Day/night availability: the reachable fraction follows a cosine.

    At round ``t`` the availability probability is::

        p(t) = min + (max - min) * (1 + cos(2π (t + phase) / period)) / 2

    and each client is independently reachable with probability ``p(t)``
    drawn from a schedule-private seeded stream, so the fleet thins out and
    recovers over each simulated "day" without perturbing the runtime's
    sampling stream.
    """

    name = "diurnal"

    def __init__(
        self,
        period_rounds: int = 24,
        min_availability: float = 0.2,
        max_availability: float = 0.95,
        phase: float = 0.0,
        seed: int = 0,
    ) -> None:
        period_rounds = _round_count("period_rounds", period_rounds)
        if period_rounds <= 0:
            raise ValueError(f"period_rounds must be positive, got {period_rounds}")
        if not 0.0 <= min_availability <= max_availability <= 1.0:
            raise ValueError(
                "need 0 <= min_availability <= max_availability <= 1, got "
                f"[{min_availability}, {max_availability}]"
            )
        if not math.isfinite(float(phase)):
            raise ValueError(f"phase must be finite, got {phase!r}")
        self.period_rounds = period_rounds
        self.min_availability = float(min_availability)
        self.max_availability = float(max_availability)
        self.phase = float(phase)
        self._seed = int(seed)

    def availability(self, round_index: int) -> float:
        """The reachable fraction p(t) at ``round_index``."""
        swing = self.max_availability - self.min_availability
        cycle = 2.0 * np.pi * (round_index + self.phase) / self.period_rounds
        return self.min_availability + swing * 0.5 * (1.0 + float(np.cos(cycle)))

    def mask(self, round_index: int, num_clients: int) -> np.ndarray:
        # A fresh per-round generator keeps the mask a pure function of the
        # round index: replaying round t yields the same fleet regardless of
        # how many rounds ran before it.
        rng = np.random.default_rng((self._seed, round_index))
        return rng.random(num_clients) < self.availability(round_index)

    def state_dict(self) -> dict:
        return {
            "name": self.name,
            "period_rounds": self.period_rounds,
            "min_availability": self.min_availability,
            "max_availability": self.max_availability,
            "phase": self.phase,
            "seed": self._seed,
        }


class FlashCrowdSchedule(ParticipationSchedule):
    """A stable core plus a crowd that joins and leaves in a burst.

    The first ``(1 - crowd_fraction)`` of the fleet (by client id) is always
    reachable; the remaining crowd block is reachable only for rounds in
    ``[join_round, leave_round)``.
    """

    name = "flash-crowd"

    def __init__(
        self,
        join_round: int = 2,
        leave_round: int = 6,
        crowd_fraction: float = 0.5,
    ) -> None:
        join_round = _round_count("join_round", join_round)
        leave_round = _round_count("leave_round", leave_round)
        if join_round < 0 or leave_round <= join_round:
            raise ValueError(
                f"need 0 <= join_round < leave_round, got [{join_round}, {leave_round})"
            )
        if not 0.0 < crowd_fraction < 1.0:
            raise ValueError(f"crowd_fraction must lie in (0, 1), got {crowd_fraction}")
        self.join_round = join_round
        self.leave_round = leave_round
        self.crowd_fraction = float(crowd_fraction)

    def crowd_start(self, num_clients: int) -> int:
        """First client id belonging to the crowd block."""
        core = int(round(num_clients * (1.0 - self.crowd_fraction)))
        return min(max(core, 1), num_clients)

    def mask(self, round_index: int, num_clients: int) -> np.ndarray:
        mask = np.zeros(num_clients, dtype=bool)
        start = self.crowd_start(num_clients)
        mask[:start] = True
        if self.join_round <= round_index < self.leave_round:
            mask[start:] = True
        return mask

    def transitions(
        self, round_index: int, num_clients: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        # O(transitions): the core arrives once at round 0, the crowd block
        # arrives at join_round and departs at leave_round; every other round
        # is event-free no matter how large the fleet is.
        empty = np.empty(0, dtype=np.int64)
        start = self.crowd_start(num_clients)
        arrivals, departures = empty, empty
        if round_index <= 0:
            in_burst = self.join_round <= 0 < self.leave_round
            arrivals = np.arange(num_clients if in_burst else start, dtype=np.int64)
        elif round_index == self.join_round:
            arrivals = np.arange(start, num_clients, dtype=np.int64)
        if round_index == self.leave_round:
            departures = np.arange(start, num_clients, dtype=np.int64)
        return arrivals, departures

    def state_dict(self) -> dict:
        return {
            "name": self.name,
            "join_round": self.join_round,
            "leave_round": self.leave_round,
            "crowd_fraction": self.crowd_fraction,
        }


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class SimulatedCrash(RuntimeError):
    """Raised by a fault injector to simulate the server process dying.

    Carries the index of the last completed round so harnesses (and the CLI)
    can report where the run stopped.  A crash-safe run recovers by
    reconstructing the runtime and calling ``run(..., resume=True)`` with the
    same checkpoint directory — see :mod:`repro.fl.checkpoint`.
    """

    def __init__(self, round_index: int) -> None:
        super().__init__(
            f"simulated server crash after round {round_index}; resume from the "
            "latest checkpoint to continue the run"
        )
        self.round_index = int(round_index)


class FaultInjector:
    """Per-round failure hook consulted by ``FederatedRuntime.run``.

    ``after_round(i)`` is called once round ``i`` has completed **and** any
    due checkpoint has been persisted — the worst-case crash point for a
    crash-safe runtime (everything in memory is lost, everything on disk must
    suffice).  Implementations raise (typically :class:`SimulatedCrash`) to
    kill the run.  ``on_resume(r, fired_rounds)`` is called when a run
    restores a snapshot taken after ``r`` completed rounds; ``fired_rounds``
    are the round indices whose simulated crash already fired in an earlier
    process (recorded as durable markers next to the snapshots), so schedules
    can model one-shot failures that do not re-fire in the resumed process.
    """

    def after_round(self, round_index: int) -> None:
        """Called after round ``round_index`` completed; raise to inject a fault."""

    def on_resume(self, rounds_completed: int, fired_rounds=()) -> None:
        """Called after a snapshot restore, before any round executes."""


class ServerCrashSchedule(FaultInjector):
    """Deterministically crash the server after the given rounds — once each.

    ``ServerCrashSchedule(2)`` kills the run the first time round 2 completes
    (after any due checkpoint was persisted).  Each listed round models a
    *one-shot* failure event, so each kills exactly one process: the runtime
    records every fired crash as a durable marker beside the snapshots
    (:func:`repro.fl.checkpoint.record_crash_marker`) and feeds the markers
    back through :meth:`on_resume`, so a crash round that fell between sparse
    checkpoints — and is therefore *re-executed* by the resumed process — is
    not re-crashed (which would livelock every resume attempt), while a
    listed round the dead process never reached still fires.  Multiple
    indices model repeated failures across successive process generations.
    """

    def __init__(self, *crash_after_rounds: int) -> None:
        if not crash_after_rounds:
            raise ValueError("ServerCrashSchedule needs at least one round index")
        rounds = sorted(_round_count("crash_after_rounds", r) for r in crash_after_rounds)
        if rounds[0] < 0:
            raise ValueError(f"crash rounds must be non-negative, got {rounds}")
        self.crash_after_rounds = tuple(rounds)
        self._fired: set = set()

    def on_resume(self, rounds_completed: int, fired_rounds=()) -> None:
        self._fired.update(int(index) for index in fired_rounds)

    def after_round(self, round_index: int) -> None:
        if round_index in self.crash_after_rounds and round_index not in self._fired:
            self._fired.add(round_index)
            raise SimulatedCrash(round_index)


class ClientCrash(RuntimeError):
    """Raised inside a client task to simulate that client dying mid-round.

    Unlike :class:`SimulatedCrash` (the *server* process dying, which kills
    the run), a client crash is a per-participant failure the round must
    absorb: the executor converts it into a dropped update with zero payload
    bytes (the client never transmitted), the scheduler sees one more
    non-delivered participant, and the round completes normally.  The
    exception is picklable — it crosses the process-executor boundary intact
    via ``__reduce__`` — so serial and process execution surface it identically.
    """

    def __init__(self, round_index: int, client_id: int) -> None:
        super().__init__(
            f"simulated crash of client {client_id} during round {round_index}"
        )
        self.round_index = int(round_index)
        self.client_id = int(client_id)

    def __reduce__(self):
        return (type(self), (self.round_index, self.client_id))


class ClientCrashSchedule:
    """Deterministic per-round client deaths: ``{round_index: [client_ids]}``.

    Consulted by :meth:`repro.fl.runtime.FederatedRuntime.start_round` when
    building client tasks; a scheduled ``(round, client)`` pair gets a
    :class:`ClientCrash` fault attached to its task instead of running
    training.  The crash fires every time its round executes — including on a
    checkpoint-resume replay of that round — so crashed runs stay
    bit-identical to uninterrupted ones.
    """

    def __init__(self, crashes: Dict[int, Sequence[int]]) -> None:
        self._crashes = {
            int(round_index): frozenset(int(cid) for cid in client_ids)
            for round_index, client_ids in crashes.items()
        }

    def fault_for(self, round_index: int, client_id: int) -> Optional[ClientCrash]:
        """The fault to inject for this (round, client), or ``None``."""
        if client_id in self._crashes.get(round_index, frozenset()):
            return ClientCrash(round_index, client_id)
        return None


class CorruptedUpload(RuntimeError):
    """Marks one client's update as corrupted/truncated in transit.

    Unlike :class:`ClientCrash` the client is perfectly healthy: it trains,
    compresses and occupies its link for the bytes that travelled.  What
    arrives, however, fails the server's CRC frame check
    (:func:`repro.core.serializer.unframe_checksummed` over the wire built by
    :func:`repro.fl.transport.corrupt_wire_bytes`), so the server rejects the
    payload and accounts the client as a dropped update with zero accepted
    bytes.  Picklable via ``__reduce__`` so it crosses the process-executor
    boundary intact, making the reject path identical across serial and
    process execution.
    """

    def __init__(self, round_index: int, client_id: int) -> None:
        super().__init__(
            f"update of client {client_id} corrupted in transit during round "
            f"{round_index}"
        )
        self.round_index = int(round_index)
        self.client_id = int(client_id)

    def __reduce__(self):
        return (type(self), (self.round_index, self.client_id))


class CorruptedUploadSchedule:
    """Deterministic per-round upload corruption: ``{round_index: [client_ids]}``.

    The corruption counterpart of :class:`ClientCrashSchedule`: a scheduled
    ``(round, client)`` pair gets a :class:`CorruptedUpload` fault attached
    to its task, routing its transmission through the checksummed-frame
    reject path instead of the healthy uplink.
    """

    def __init__(self, corruptions: Dict[int, Sequence[int]]) -> None:
        self._corruptions = {
            int(round_index): frozenset(int(cid) for cid in client_ids)
            for round_index, client_ids in corruptions.items()
        }

    def fault_for(self, round_index: int, client_id: int) -> Optional[CorruptedUpload]:
        """The fault to inject for this (round, client), or ``None``."""
        if client_id in self._corruptions.get(round_index, frozenset()):
            return CorruptedUpload(round_index, client_id)
        return None


# ----------------------------------------------------------------------
# Scenario presets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetScenario:
    """A named, reproducible fleet regime.

    ``build()`` turns the preset into the concrete pieces a
    :class:`~repro.fl.runtime.FederatedRuntime` takes: an :class:`FLConfig`,
    a :class:`Transport`, a :class:`RoundScheduler` and a
    :class:`ParticipationSchedule`.
    """

    name: str
    description: str
    num_clients: int = 256
    client_fraction: float = 0.05
    rounds: int = 5
    partition_strategy: str = "iid"
    dirichlet_alpha: float = 0.5
    scheduler_name: str = "sync"
    scheduler_kwargs: Dict[str, float] = field(default_factory=dict)
    bandwidths_mbps: Sequence[float] = (5.0, 10.0, 25.0, 50.0)
    latency_seconds: float = 0.01
    dropout_probability: float = 0.0
    schedule_name: str = "full"
    schedule_kwargs: Dict[str, float] = field(default_factory=dict)
    #: Rounds after which the (simulated) server crashes — resumability
    #: scenarios set this so kill-and-resume is a first-class tested workload.
    crash_after_rounds: Tuple[int, ...] = ()
    #: Build the transport from one spec per *bandwidth* cycled over the
    #: fleet instead of one spec per client — O(pattern) memory, the
    #: mega-fleet convention (see :meth:`repro.fl.transport.Transport.heterogeneous`).
    cycle_links: bool = False

    def with_overrides(self, **overrides) -> "FleetScenario":
        """A copy of this preset with the given fields replaced."""
        return replace(self, **overrides)

    def build(
        self, seed: int = 0, **config_overrides
    ) -> Tuple[FLConfig, Transport, RoundScheduler, ParticipationSchedule]:
        """Materialise the scenario's runtime components."""
        config_kwargs = dict(
            num_clients=self.num_clients,
            rounds=self.rounds,
            client_fraction=self.client_fraction,
            partition_strategy=self.partition_strategy,
            dirichlet_alpha=self.dirichlet_alpha,
            seed=seed,
        )
        config_kwargs.update(config_overrides)
        config = FLConfig(**config_kwargs)
        # With cycle_links the spec list covers one full bandwidth cycle and
        # repeats over the fleet — the exact per-client specs the eager list
        # would assign (edge_fleet_specs already cycles bandwidths by id).
        spec_count = len(self.bandwidths_mbps) if self.cycle_links else config.num_clients
        transport = Transport.heterogeneous(
            edge_fleet_specs(
                spec_count,
                bandwidths_mbps=tuple(self.bandwidths_mbps),
                latency_seconds=self.latency_seconds,
                dropout_probability=self.dropout_probability,
            ),
            cycle=self.cycle_links,
        )
        scheduler = get_scheduler(self.scheduler_name, **dict(self.scheduler_kwargs))
        schedule = build_schedule(self.schedule_name, seed=seed, **dict(self.schedule_kwargs))
        return config, transport, scheduler, schedule

    def build_fault_injector(self) -> Optional[ServerCrashSchedule]:
        """The scenario's crash schedule, or ``None`` for a reliable server."""
        if not self.crash_after_rounds:
            return None
        return ServerCrashSchedule(*self.crash_after_rounds)


def build_schedule(name: str, seed: int = 0, **kwargs) -> ParticipationSchedule:
    """Build a participation schedule by short name."""
    key = name.lower().replace("_", "-")
    if key == "full":
        return FullParticipation()
    if key == "diurnal":
        return DiurnalSchedule(seed=seed, **kwargs)
    if key == "flash-crowd":
        return FlashCrowdSchedule(**kwargs)
    raise KeyError(
        f"unknown schedule {name!r}; available: 'full', 'diurnal', 'flash-crowd'"
    )


_SCENARIOS: Dict[str, FleetScenario] = {
    scenario.name: scenario
    for scenario in (
        FleetScenario(
            name="uniform-edge",
            description=(
                "Steady 256-client edge fleet cycling through 5/10/25/50 Mbps "
                "uplinks; sync FedAvg samples 5% per round"
            ),
        ),
        FleetScenario(
            name="diurnal",
            description=(
                "Fleet whose availability follows a day/night cosine; semi-sync "
                "rounds cut the stragglers the thin night fleet leaves (flip "
                "partition_strategy to 'dirichlet' for non-IID data when the "
                "per-client dataset is large enough)"
            ),
            rounds=8,  # one full day/night cycle at period_rounds=8
            scheduler_name="semi-sync",
            scheduler_kwargs={"deadline_seconds": 60.0},
            schedule_name="diurnal",
            schedule_kwargs={"period_rounds": 8, "min_availability": 0.2,
                             "max_availability": 0.9},
        ),
        FleetScenario(
            name="flash-crowd",
            description=(
                "Stable core fleet plus a crowd block joining at round 2 and "
                "leaving at round 6; async staleness-weighted mixing"
            ),
            rounds=8,  # covers the full join(2) -> leave(6) -> gone arc
            scheduler_name="async",
            scheduler_kwargs={"mixing_rate": 0.5, "staleness_exponent": 0.5},
            schedule_name="flash-crowd",
            schedule_kwargs={"join_round": 2, "leave_round": 6, "crowd_fraction": 0.5},
        ),
        FleetScenario(
            name="mega-fleet",
            description=(
                "100k-client diurnal fleet: availability compiles to "
                "arrival/departure event streams, links cycle a four-bandwidth "
                "pattern, and each round touches only participants + "
                "availability transitions"
            ),
            num_clients=100_000,
            client_fraction=0.0002,
            rounds=4,
            schedule_name="diurnal",
            schedule_kwargs={"period_rounds": 4, "min_availability": 0.2,
                             "max_availability": 0.9},
            cycle_links=True,
        ),
        FleetScenario(
            name="unreliable-server",
            description=(
                "Small edge fleet whose server crashes after round 2 — run with "
                "--checkpoint-dir so the crash is recoverable, then re-run with "
                "--resume to finish the remaining rounds bit-identically"
            ),
            num_clients=16,
            client_fraction=0.25,
            rounds=5,
            crash_after_rounds=(2,),
        ),
    )
}


def available_scenarios() -> List[FleetScenario]:
    """All scenario presets, sorted by name."""
    return [_SCENARIOS[name] for name in sorted(_SCENARIOS)]


def get_scenario(name: str, **overrides) -> FleetScenario:
    """Look up a preset by name, optionally overriding its fields."""
    try:
        scenario = _SCENARIOS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(_SCENARIOS)}"
        ) from None
    return scenario.with_overrides(**overrides) if overrides else scenario


def build_fleet_runtime(
    scenario,
    model_fn,
    train_dataset,
    validation_dataset,
    *,
    codec=None,
    executor=None,
    seed: int = 0,
    monitor=None,
    **config_overrides,
):
    """Build a :class:`FederatedRuntime` from a scenario (name or instance)."""
    from repro.fl.runtime import FederatedRuntime

    # perf/ (frozen) still passes engine="events"; the key goes when the
    # benchmark stops passing it.
    if config_overrides.pop("engine", "events") != "events":
        raise ValueError(
            "the 'engine' option was removed: every run is driven by the event engine"
        )
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    config, transport, scheduler, schedule = scenario.build(seed=seed, **config_overrides)
    return FederatedRuntime(
        model_fn,
        train_dataset,
        validation_dataset,
        config=config,
        codec=codec,
        scheduler=scheduler,
        executor=executor,
        transport=transport,
        schedule=schedule,
        fault_injector=scenario.build_fault_injector(),
        monitor=monitor,
    )


__all__ = [
    "ParticipationSchedule",
    "FullParticipation",
    "DiurnalSchedule",
    "FlashCrowdSchedule",
    "FaultInjector",
    "ServerCrashSchedule",
    "SimulatedCrash",
    "ClientCrash",
    "ClientCrashSchedule",
    "CorruptedUpload",
    "CorruptedUploadSchedule",
    "FleetScenario",
    "build_schedule",
    "available_scenarios",
    "get_scenario",
    "build_fleet_runtime",
]
