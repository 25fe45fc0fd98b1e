"""Fleet engine: one federated round, with the reachable set kept incrementally.

The paper's round is a barrier: clients train, compress and upload, and the
server closes the round once every upload has landed or been cut.  The engine
runs one such round: it brings the reachable-client set up to the round, lets
the runtime sample, broadcast and execute, and hands the results to the
scheduler, which closes the round from them (:mod:`repro.fl.scheduler`).  The
run loop (a round, then a due checkpoint, then the fault injector) is
:meth:`repro.fl.runtime.FederatedRuntime.run`.

Pieces:

* :class:`EligibleSet` — the incrementally maintained "who is reachable"
  set, a one-``bool``-per-client bitmap.  Availability schedules compile into
  arrival/departure streams
  (:meth:`repro.fl.scenarios.ParticipationSchedule.transitions`) instead of
  per-round full-fleet masks; applying a stream is two scatters, and the ids
  it yields reproduce ``np.nonzero(mask)[0]`` bit for bit.
* :class:`FleetEngine` — one per runtime: folds each round's transitions into
  the set, so per-round work scales with **participants + availability
  transitions** and a 100k–1M-client fleet costs what its activity costs, not
  what its census costs.
* :class:`EngineStats` — that accounting, per engine.

Determinism contract
--------------------
The simulated outcome (``deterministic_rows()`` and the final weights) is a
pure function of the seed under every executor and across kill+resume
(asserted at 256 clients for sync/semi-sync/async × serial/process in
``tests/integration/test_event_engine.py``):

* A round closes on round-relative turnaround durations, never re-based onto
  a global clock (float addition is not associative; ``t0 + a <= t0 + b``
  can disagree with ``a <= b``).
* Results arrive in task order, which is ascending client id.  Arrival order
  is a stable sort of them by turnaround, so simultaneous arrivals keep
  ascending client id; the semi-sync deadline is inclusive
  (``turnaround <= deadline`` is on time).
* Sync and semi-sync aggregate in task order, so float summation order never
  depends on arrival order; async mixes in arrival order, which is a pure
  function of the results.
* Sampling consumes the same RNG stream: the eligible ids handed to the
  sampler equal ``np.nonzero(mask)[0]`` exactly, and
  ``Generator.choice``'s draws depend only on the pool size and draw count.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np


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
    availability_transitions: int = 0
    #: Per-round client touches: participants + availability transitions.
    round_touches: List[int] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        """Round starts, client completions and availability transitions
        (the basis of ``events_per_round``)."""
        return self.rounds_run + self.participants + self.availability_transitions


class FleetEngine:
    """Run the rounds of a :class:`~repro.fl.runtime.FederatedRuntime`.

    Every runtime owns one.  See the module docstring for the determinism
    contract.
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

    def run_round(self):
        """Run one round and let the scheduler close it from its results."""
        runtime = self.runtime
        eligible, touches = self._advance_availability(len(runtime.history))
        context = runtime.start_round(eligible=eligible)
        results = runtime.execute_clients(context)
        record = runtime.scheduler.consume_events(runtime, context, results)
        self.stats.rounds_run += 1
        self.stats.participants += len(results)
        self.stats.round_touches.append(len(results) + touches)
        return record


__all__ = ["EligibleSet", "EngineStats", "FleetEngine"]
