"""Scheduler layer of the federated runtime: pluggable round strategies.

A scheduler decides *what a round means*: who aggregates, with which weights,
and how long the round takes in simulated time.

* :class:`SynchronousScheduler` — classic FedAvg; the server waits for every
  participant and averages them.
* :class:`SemiSynchronousScheduler` — FedAvg with a straggler deadline: any
  client whose simulated turnaround (training + codec + transfer) exceeds the
  deadline is excluded from aggregation and the round closes at the deadline
  instead of waiting.
* :class:`AsynchronousScheduler` — staleness-weighted sequential mixing
  (FedAsync-style): delivered updates are applied one at a time in arrival
  order, each with weight ``mixing_rate * (1 + staleness)**-staleness_exponent``.

The engine (:mod:`repro.fl.events`) samples, broadcasts and executes the
round, then hands the scheduler's ``consume_events`` the round's results in
task order (ascending client id); the scheduler closes the round from them.
Client execution belongs to the executor layer and per-client links to the
transport layer.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.fl.aggregation import mix_states
from repro.fl.history import RoundRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fl.runtime import FederatedRuntime


class RoundScheduler:
    """Base class: one federated round under some coordination strategy."""

    name = "base"

    def run_round(self, runtime: "FederatedRuntime") -> RoundRecord:
        """Execute one round against the runtime and return its record."""
        return runtime.run_round()

    def consume_events(self, runtime, context, results) -> RoundRecord:
        """Close the round from its ``results`` (task order).

        Decide who aggregates and how long the round took, then return
        ``runtime.finish_round(...)``.
        """
        raise NotImplementedError

    def state_dict(self) -> dict:
        """JSON-compatible fingerprint of this scheduler's configuration.

        Schedulers are stateless between rounds, so the fingerprint exists for
        *validation*, not restoration: a checkpoint records it and resume
        refuses to continue under a scheduler with different round semantics
        (which would silently break bit-identical resumability).
        """
        return {"name": self.name}


class SynchronousScheduler(RoundScheduler):
    """FedAvg: wait for every participant, aggregate them all."""

    name = "sync"

    def consume_events(self, runtime, context, results) -> RoundRecord:
        """The barrier: wait for every participant, then aggregate.

        The round closes at the slowest turnaround, delivered or not — the
        server only learns an update was lost in transit once its transfer
        window has passed.  Aggregation walks ``results`` in task order, so
        float summation order is the same under every executor.
        """
        round_seconds = max((r.turnaround_seconds for r in results), default=0.0)
        delivered = [result for result in results if result.delivered]
        if delivered:
            runtime.server.aggregate(
                [result.state for result in delivered],
                [float(result.update.num_samples) for result in delivered],
            )
        return runtime.finish_round(
            context,
            results,
            aggregated_ids={r.client_id for r in delivered},
            round_seconds=round_seconds,
        )


class SemiSynchronousScheduler(RoundScheduler):
    """FedAvg with a deadline: stragglers are cut, not waited for."""

    name = "semi-sync"

    def __init__(self, deadline_seconds: float) -> None:
        if not (math.isfinite(deadline_seconds) and deadline_seconds > 0):
            raise ValueError(
                f"deadline_seconds must be positive and finite, got {deadline_seconds}"
            )
        self.deadline_seconds = float(deadline_seconds)

    def state_dict(self) -> dict:
        return {"name": self.name, "deadline_seconds": self.deadline_seconds}

    def consume_events(self, runtime, context, results) -> RoundRecord:
        """The deadline: deliveries landing by it aggregate, the rest are cut.

        An update landing at exactly the deadline is on time
        (``turnaround <= deadline``).  The round runs to the deadline whenever
        any expected update is missing at close — cut stragglers *and*
        updates dropped in transit, which the server cannot tell apart until
        then — and otherwise closes at the last on-time delivery.
        Aggregation walks ``results`` in task order.
        """
        on_time = [
            r for r in results if r.delivered and r.turnaround_seconds <= self.deadline_seconds
        ]
        if on_time:
            runtime.server.aggregate(
                [result.state for result in on_time],
                [float(result.update.num_samples) for result in on_time],
            )
        if len(on_time) < len(results):
            round_seconds = self.deadline_seconds
        else:
            round_seconds = max((r.turnaround_seconds for r in on_time), default=0.0)
        return runtime.finish_round(
            context,
            results,
            aggregated_ids={r.client_id for r in on_time},
            round_seconds=round_seconds,
        )


class AsynchronousScheduler(RoundScheduler):
    """Staleness-weighted sequential mixing in simulated arrival order.

    Within each scheduling window ("round"), delivered updates — all trained
    against the window's broadcast state — are applied one at a time, ordered
    by simulated turnaround.  The ``i``-th arrival finds a global model that
    has already absorbed ``i`` fresher updates, so it is mixed in with weight
    ``mixing_rate * (1 + i) ** -staleness_exponent``.
    """

    name = "async"

    def __init__(self, mixing_rate: float = 0.5, staleness_exponent: float = 0.5) -> None:
        if not 0.0 < mixing_rate <= 1.0:
            raise ValueError(f"mixing_rate must lie in (0, 1], got {mixing_rate}")
        if not (math.isfinite(staleness_exponent) and staleness_exponent >= 0):
            raise ValueError(
                f"staleness_exponent must be non-negative and finite, got {staleness_exponent}"
            )
        self.mixing_rate = float(mixing_rate)
        self.staleness_exponent = float(staleness_exponent)

    def state_dict(self) -> dict:
        return {
            "name": self.name,
            "mixing_rate": self.mixing_rate,
            "staleness_exponent": self.staleness_exponent,
        }

    def staleness_weight(self, staleness: int) -> float:
        """Mixing weight for an update that is ``staleness`` versions old."""
        return self.mixing_rate * (1.0 + staleness) ** (-self.staleness_exponent)

    def consume_events(self, runtime, context, results) -> RoundRecord:
        """Async mixing: apply deliveries in arrival order.

        Arrival order is a stable sort of the task-ordered results by
        turnaround, so simultaneous arrivals mix lower client id first; the
        round closes at the last delivery.
        """
        arrivals = sorted(
            (r for r in results if r.delivered), key=lambda r: r.turnaround_seconds
        )
        weights = {}
        staleness_by_client = {}
        global_state = runtime.server.global_state()
        for staleness, result in enumerate(arrivals):
            weight = self.staleness_weight(staleness)
            global_state = mix_states(global_state, result.state, weight)
            weights[result.client_id] = weight
            staleness_by_client[result.client_id] = staleness
        if arrivals:
            runtime.server.set_global_state(global_state)
        return runtime.finish_round(
            context,
            results,
            aggregated_ids=set(weights),
            round_seconds=arrivals[-1].turnaround_seconds if arrivals else 0.0,
            client_weights=weights,
            client_staleness=staleness_by_client,
        )


def canonical_scheduler_name(name: str) -> str:
    """Normalise a scheduler alias to ``sync`` / ``semi-sync`` / ``async``."""
    key = name.lower().replace("_", "-")
    if key in {"sync", "synchronous", "fedavg"}:
        return "sync"
    if key in {"semi-sync", "semisync", "semi-synchronous"}:
        return "semi-sync"
    if key in {"async", "asynchronous", "fedasync"}:
        return "async"
    raise KeyError(
        f"unknown scheduler {name!r}; available: 'sync', 'semi-sync', 'async'"
    )


def get_scheduler(name: str, **kwargs) -> RoundScheduler:
    """Build a scheduler by its short name (``sync``/``semi-sync``/``async``)."""
    canonical = canonical_scheduler_name(name)
    if canonical == "sync":
        return SynchronousScheduler()
    if canonical == "semi-sync":
        return SemiSynchronousScheduler(**kwargs)
    return AsynchronousScheduler(**kwargs)


__all__ = [
    "RoundScheduler",
    "SynchronousScheduler",
    "SemiSynchronousScheduler",
    "AsynchronousScheduler",
    "canonical_scheduler_name",
    "get_scheduler",
]
