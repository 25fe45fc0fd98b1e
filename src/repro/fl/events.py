"""Discrete-event engine: the round loop of every federated run.

Rounds and control actions flow through a deterministic event queue, and the
reachable-client set is maintained incrementally, so per-round work scales
with **participants + availability transitions** — the events that actually
happen — and a 100k–1M-client fleet costs what its activity costs, not what
its census costs.

Pieces:

* :class:`EventQueue` — a deterministic priority queue (``heapq``) ordered by
  ``(time, seq)``.  The monotone sequence number makes ties reproducible:
  two events at the same instant pop in push order, never in hash or
  comparison-of-payload order.
* Typed events (:class:`Event`) — round start, per-client completion (timed
  by the transport's simulated link seconds, which unifies the virtual
  clock), straggler deadline, checkpoint due, and fault injection.
* :class:`EligibleSet` — the incrementally maintained "who is reachable"
  set, a one-``bool``-per-client bitmap.  Availability schedules compile into
  arrival/departure event streams
  (:meth:`repro.fl.scenarios.ParticipationSchedule.transitions`) instead of
  per-round full-fleet masks; applying a stream is two scatters, and the ids
  it yields reproduce ``np.nonzero(mask)[0]`` bit for bit.
* :class:`FleetEngine` — drives a :class:`~repro.fl.runtime.FederatedRuntime`
  from the queue.  Schedulers consume the round's completion events
  (``consume_events``): synchronous FedAvg is the degenerate barrier case
  (drain everything), the semi-synchronous deadline is a
  :data:`STRAGGLER_DEADLINE` event cutting the stream, and the asynchronous
  scheduler mixes deliveries in pop order.

Determinism contract
--------------------
The simulated outcome (``deterministic_rows()`` and the final weights) is a
pure function of the seed under every executor and across kill+resume
(asserted at 256 clients for sync/semi-sync/async × serial/process in
``tests/integration/test_event_engine.py``):

* Within a round, event times are **round-relative** turnaround durations,
  never re-based onto the global clock (float addition is not associative;
  ``t0 + a <= t0 + b`` can disagree with ``a <= b``).  The run-level virtual
  clock advances by each round's ``simulated_round_seconds`` instead.
* Completion events are pushed in task order, so pop order is
  ``(turnaround, task order)`` — and since participants are sorted by client
  id, that is an arrival sort by ``(turnaround_seconds, client_id)``.  The
  deadline event is pushed after the completions, so a completion at exactly
  the deadline drains first: ``turnaround <= deadline`` is on time.
* Aggregation happens in **task order** from the results list (events decide
  membership and timing only), so float summation order never changes.
* Sampling consumes the same RNG stream: the eligible ids handed to the
  sampler equal ``np.nonzero(mask)[0]`` exactly, and
  ``Generator.choice``'s draws depend only on the pool size and draw count.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

#: A new round opens: sample the eligible fleet, broadcast, dispatch tasks.
ROUND_START = "round-start"
#: One participant's update finished its simulated receive→train→transmit arc.
CLIENT_COMPLETION = "client-completion"
#: The semi-synchronous scheduler's cutoff: later completions are stragglers.
STRAGGLER_DEADLINE = "straggler-deadline"
#: A checkpoint is due (persisted before any fault can fire).
CHECKPOINT_DUE = "checkpoint-due"
#: The fault injector is consulted (the worst-case crash point).
FAULT_INJECTION = "fault-injection"


@dataclass
class Event:
    """One typed occurrence on the virtual clock.

    ``time`` is round-relative (a turnaround duration) for within-round
    events and absolute virtual seconds for run-level control events — see
    the module docstring's determinism contract for why the two never mix.
    """

    kind: str
    time: float
    round_index: int = -1
    client_id: Optional[int] = None
    #: The :class:`~repro.fl.executor.ClientResult` behind a completion.
    result: Optional[object] = None


class EventQueue:
    """Deterministic priority queue: pops by ``(time, push order)``.

    Events never compare against each other — the heap entries are
    ``(time, seq, event)`` and the monotone ``seq`` breaks every time tie —
    so pop order is a pure function of the push sequence.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0

    def push(self, event: Event) -> None:
        """Enqueue ``event`` at ``event.time``."""
        heapq.heappush(self._heap, (float(event.time), self._seq, event))
        self._seq += 1

    def pop(self) -> Event:
        """Dequeue the earliest event (FIFO within one instant)."""
        return heapq.heappop(self._heap)[2]

    def peek_time(self) -> float:
        """The time of the next event without dequeuing it."""
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def _checked_ids(batch, num_clients: Optional[int]) -> np.ndarray:
    """One transition batch as an ``int64`` id array, in any order, duplicates
    allowed.  Rejects what no mask could mean: a non-integer or non-1-D array,
    an id outside ``[0, num_clients)`` — two reductions over the batch, not the
    fleet.  A bare empty sequence (``[]``) carries no dtype and means no ids."""
    ids = np.asarray(batch)
    if ids.shape == (0,) and not isinstance(batch, np.ndarray):
        ids = ids.astype(np.int64)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError(
            f"client ids must be a 1-D integer array, got {ids.dtype} of shape {ids.shape}"
        )
    if ids.size and (ids.min() < 0 or (num_clients is not None and ids.max() >= num_clients)):
        raise ValueError(
            f"client ids must lie in [0, {num_clients}), got {ids.min()}..{ids.max()}"
        )
    return ids.astype(np.int64, copy=False)


class EligibleSet:
    """The reachable-client set, maintained from arrival/departure batches.

    The set is a bitmap, one ``bool`` per client id.  A batch is two scatters
    (arrivals to ``True``, then departures to ``False``), so folding a round
    costs O(transitions) and needs no sorted or unique input.  :meth:`ids`
    is ``np.flatnonzero`` of the bitmap — exactly what
    ``np.nonzero(mask)[0]`` yields, so handing it to the sampler reproduces
    the mask-based draw bit for bit — recomputed only after a batch changed
    the set, so an event-free round costs O(1).  Without a fleet size the
    bitmap grows to the largest id seen.  ``touched`` counts ids moved
    through :meth:`apply` / :meth:`reset_from_mask`: the O(events) guard
    asserts it scales with transitions, not fleet size.
    """

    def __init__(self) -> None:
        self._bitmap = np.zeros(0, dtype=bool)
        self._ids: Optional[np.ndarray] = np.empty(0, dtype=np.int64)
        self.touched = 0

    def _reserve(self, size: int) -> None:
        """Grow the bitmap to hold ids below ``size`` (at least doubling)."""
        if size > self._bitmap.size:
            grown = np.zeros(max(size, 2 * self._bitmap.size), dtype=bool)
            grown[: self._bitmap.size] = self._bitmap
            self._bitmap = grown

    def apply(
        self, arrivals: np.ndarray, departures: np.ndarray, num_clients: Optional[int] = None
    ) -> None:
        """Fold one round's transitions into the set: arrivals, then departures.

        Arrivals already present and departures that are absent change
        nothing; an id in both ends up absent.  ``num_clients`` bounds the
        ids when the caller knows the fleet size.
        """
        arriving = _checked_ids(arrivals, num_clients)
        leaving = _checked_ids(departures, num_clients)
        if arriving.size or leaving.size:
            if num_clients is None:
                num_clients = 1 + max(arriving.max(initial=-1), leaving.max(initial=-1))
            self._reserve(int(num_clients))
            self._bitmap[arriving] = True
            self._bitmap[leaving] = False
            self._ids = None
        self.touched += int(arriving.size) + int(leaving.size)

    def reset_from_mask(self, mask: np.ndarray, num_clients: Optional[int] = None) -> None:
        """Rebuild the set from a full mask (the resume/discontinuity path).

        A pure function of the mask, so a fresh engine resuming mid-run
        lands on exactly the set the uninterrupted engine maintained
        incrementally.  Costs (and counts) a full-fleet touch.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 1 or num_clients not in (None, mask.size):
            raise ValueError(f"availability mask has shape {mask.shape}, expected ({num_clients},)")
        self._bitmap = mask.copy()
        self._ids = None
        self.touched += int(mask.size)

    def ids(self) -> np.ndarray:
        """Sorted unique ids of the currently reachable clients."""
        if self._ids is None:
            self._ids = np.flatnonzero(self._bitmap).astype(np.int64, copy=False)
        return self._ids

    def __len__(self) -> int:
        return int(self.ids().size)


@dataclass
class EngineStats:
    """Event and touch accounting for one engine's lifetime."""

    rounds_run: int = 0
    participants: int = 0
    completion_events: int = 0
    availability_transitions: int = 0
    control_events: int = 0
    #: Per-round client touches: participants + availability transitions.
    round_touches: List[int] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        """Every event the engine processed (the basis of ``events_per_round``)."""
        return (
            self.rounds_run
            + self.completion_events
            + self.availability_transitions
            + self.control_events
        )


class FleetEngine:
    """Drive a :class:`~repro.fl.runtime.FederatedRuntime` by events.

    Every runtime owns one.  :meth:`run_round` executes a single round;
    :meth:`run` owns a whole run including checkpointing and fault
    injection.  See the module docstring for the determinism contract.
    """

    def __init__(self, runtime) -> None:
        # The runtime owns its engine.  A strong back-reference would be a
        # cycle, and a dropped runtime (models, datasets, client state) would
        # stay resident until the cycle collector happens to run.
        self.runtime = weakref.proxy(runtime)
        self.eligible = EligibleSet()
        self.stats = EngineStats()
        #: Round index whose transitions the eligible set currently reflects
        #: (-1 = never advanced, forcing a mask rebuild on first use).
        self._availability_round = -1

    # ------------------------------------------------------------------
    # Virtual clock
    # ------------------------------------------------------------------
    @property
    def virtual_time(self) -> float:
        """Absolute simulated seconds elapsed: the sum of round durations.

        Derived from the history rather than accumulated privately, so a
        resumed engine's clock is automatically exact.
        """
        return float(
            sum(
                record.simulated_round_seconds
                for record in self.runtime.history.records
            )
        )

    # ------------------------------------------------------------------
    # Availability event stream
    # ------------------------------------------------------------------
    def _advance_availability(self, round_index: int) -> Tuple[Optional[np.ndarray], int]:
        """Bring the eligible set to ``round_index``; return ``(ids, touches)``.

        Consecutive rounds fold the schedule's arrival/departure stream into
        the set incrementally; a discontinuity (the first round of a resumed
        process) rebuilds from the full mask — a pure function of the round
        index, so both paths land on the same set.
        """
        runtime = self.runtime
        if runtime.schedule is None:
            return None, 0
        num_clients = len(runtime.clients)
        before = self.eligible.touched
        if self._availability_round == round_index - 1:
            arrivals, departures = runtime.schedule.transitions(round_index, num_clients)
            self.eligible.apply(arrivals, departures, num_clients)
            self.stats.availability_transitions += int(
                np.asarray(arrivals).size + np.asarray(departures).size
            )
        else:
            self.eligible.reset_from_mask(
                runtime.schedule.mask(round_index, num_clients), num_clients
            )
            self.stats.availability_transitions += len(self.eligible)
        self._availability_round = round_index
        return self.eligible.ids(), self.eligible.touched - before

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def run_round(self):
        """Execute one round by feeding its events to the scheduler."""
        runtime = self.runtime
        round_index = len(runtime.history)
        eligible, touches = self._advance_availability(round_index)
        context = runtime.start_round(eligible=eligible)
        results = runtime.execute_clients(context)

        events = EventQueue()
        for result in results:  # task order: ties pop by ascending client id
            events.push(
                Event(
                    kind=CLIENT_COMPLETION,
                    time=result.turnaround_seconds,
                    round_index=round_index,
                    client_id=result.client_id,
                    result=result,
                )
            )
        deadline = getattr(runtime.scheduler, "deadline_seconds", None)
        if deadline is not None:
            # Pushed after the completions: an update landing exactly at the
            # deadline has a smaller sequence number and drains first, so
            # `turnaround <= deadline` counts as on time.
            events.push(
                Event(kind=STRAGGLER_DEADLINE, time=float(deadline), round_index=round_index)
            )
            self.stats.control_events += 1

        record = runtime.scheduler.consume_events(runtime, context, results, events)

        self.stats.rounds_run += 1
        self.stats.participants += len(results)
        self.stats.completion_events += len(results)
        self.stats.round_touches.append(len(results) + touches)
        return record

    # ------------------------------------------------------------------
    # Whole runs
    # ------------------------------------------------------------------
    def run(
        self,
        target: int,
        *,
        directory=None,
        checkpoint_every: int = 1,
        keep_checkpoints: int = 3,
        injector=None,
    ) -> None:
        """Drive the run to ``target`` completed rounds through the queue.

        Control events fire at the absolute virtual time the round closed;
        at equal times the push order decides: checkpoint, then fault, then
        the next round start — a fault fires only after the round's snapshot
        is durable.
        """
        runtime = self.runtime
        queue = EventQueue()
        if len(runtime.history) < target:
            queue.push(
                Event(
                    kind=ROUND_START,
                    time=self.virtual_time,
                    round_index=len(runtime.history),
                )
            )
        while queue:
            event = queue.pop()
            if event.kind == ROUND_START:
                self.run_round()
                completed = len(runtime.history)
                now = self.virtual_time
                if directory is not None and (
                    completed % checkpoint_every == 0 or completed >= target
                ):
                    queue.push(
                        Event(kind=CHECKPOINT_DUE, time=now, round_index=completed - 1)
                    )
                if injector is not None:
                    queue.push(
                        Event(kind=FAULT_INJECTION, time=now, round_index=completed - 1)
                    )
                if completed < target:
                    queue.push(Event(kind=ROUND_START, time=now, round_index=completed))
            elif event.kind == CHECKPOINT_DUE:
                self.stats.control_events += 1
                runtime._write_due_checkpoint(directory, keep_checkpoints)
            elif event.kind == FAULT_INJECTION:
                self.stats.control_events += 1
                runtime._consult_injector(injector, event.round_index, directory)


__all__ = [
    "ROUND_START",
    "CLIENT_COMPLETION",
    "STRAGGLER_DEADLINE",
    "CHECKPOINT_DUE",
    "FAULT_INJECTION",
    "Event",
    "EventQueue",
    "EligibleSet",
    "EngineStats",
    "FleetEngine",
]
