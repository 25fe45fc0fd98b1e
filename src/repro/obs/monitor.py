"""Thread-safe in-process event bus over a running federated fleet.

:class:`RunMonitor` is the write side of the observability layer: the
runtime calls its four hook methods (``run_started`` / ``round_completed`` /
``checkpoint_written`` / ``fault_injected`` / ``run_finished``) as a run
progresses, and any number of reader threads — the HTTP status server, tests,
a notebook — call :meth:`RunMonitor.snapshot` to get a JSON-compatible view
of the fleet at that instant.

Design constraints, in order:

1. **Passivity.**  The monitor only ever *reads* completed round records and
   cache counters.  It draws from no RNG stream, mutates no runtime state and
   swallows subscriber exceptions, so attaching it cannot change a run's
   simulated outcome (``tests/obs/test_monitor_server.py`` pins monitored ==
   unmonitored bit-for-bit).
2. **Thread safety.**  Every mutation and every snapshot happens under one
   lock; snapshots deep-copy the aggregated state so readers can serialize it
   without racing the training loop.
3. **Bounded memory.**  The raw event log is a bounded deque; the aggregated
   per-round/per-client state is O(rounds + clients), which is what the
   dashboard actually renders.

Wall-clock timestamps (``time.time``) appear *only* in monitor data — they
feed checkpoint-age display and never flow back into the simulation.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Event kinds the runtime emits, in lifecycle order.
RUN_STARTED = "run-started"
ROUND_COMPLETED = "round-completed"
CHECKPOINT_WRITTEN = "checkpoint-written"
FAULT_INJECTED = "fault-injected"
RUN_FINISHED = "run-finished"


@dataclass(frozen=True)
class MonitorEvent:
    """One observation pushed through the bus."""

    kind: str
    wall_time: float
    payload: Dict[str, object] = field(default_factory=dict)


def _round_row(record) -> Dict[str, object]:
    """Compact JSON-compatible view of one completed round."""
    return {
        "round": record.round_index,
        "accuracy": record.global_accuracy,
        "loss": record.global_loss,
        "participants": record.participating_clients,
        "dropped": record.dropped_clients,
        "stragglers": record.straggler_clients,
        "uplink_mb": record.uplink_bytes / 1e6,
        "downlink_mb": record.downlink_bytes / 1e6,
        "ratio": record.mean_compression_ratio,
        "error_bound": record.error_bound,
        "max_bound_utilization": record.max_bound_utilization,
        "simulated_seconds": record.simulated_round_seconds,
    }


class RunMonitor:
    """Aggregating event bus for one federated run (see module docstring)."""

    def __init__(
        self, max_events: int = 4096, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self._lock = threading.RLock()
        # Late-bound so monkeypatched/sanitized time.time is honoured; the
        # default wall clock feeds monitor data only, never simulation state.
        self._clock = clock if clock is not None else time.time
        self._events: deque = deque(maxlen=max_events)
        self._subscribers: List[Callable[[MonitorEvent], None]] = []
        self._status = "idle"
        self._run: Dict[str, object] = {}
        self._rounds: List[Dict[str, object]] = []
        self._clients: Dict[int, Dict[str, object]] = {}
        self._faults: List[Dict[str, object]] = []
        self._checkpoint: Dict[str, object] = {}
        self._cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Bus primitives
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[MonitorEvent], None]) -> None:
        """Register a callback invoked on the emitting thread for every event.

        Callbacks run *outside* the bus lock (so they may call
        :meth:`snapshot`, or block on a reader that does, without
        deadlocking) and their exceptions are swallowed: observability must
        never be able to kill the run it observes.
        """
        with self._lock:
            self._subscribers.append(callback)

    def emit(self, kind: str, **payload) -> MonitorEvent:
        """Append one event to the log and fan it out to subscribers."""
        event = MonitorEvent(kind=kind, wall_time=self._clock(), payload=payload)
        with self._lock:
            self._events.append(event)
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber(event)
            except Exception:  # repro-lint: disable=DET004 -- monitor stays passive; a broken subscriber must not touch the run
                pass
        return event

    # ------------------------------------------------------------------
    # Runtime-facing hooks
    # ------------------------------------------------------------------
    def run_started(self, runtime, target_rounds: int) -> None:
        """Record run metadata when :meth:`FederatedRuntime.run` begins."""
        codec = runtime.codec
        with self._lock:
            self._status = "running"
            self._run = {
                "target_rounds": int(target_rounds),
                "rounds_at_start": len(runtime.history),
                "num_clients": len(runtime.clients),
                "scheduler": getattr(runtime.scheduler, "name", type(runtime.scheduler).__name__),
                "executor": getattr(runtime.executor, "name", type(runtime.executor).__name__),
                "codec": type(codec).__name__ if codec is not None else None,
                "started_at": self._clock(),
                "finished_at": None,
                "error": None,
            }
        self.emit(RUN_STARTED, target_rounds=int(target_rounds))

    def round_completed(self, record, runtime=None) -> None:
        """Fold one completed :class:`~repro.fl.history.RoundRecord` in."""
        row = _round_row(record)
        with self._lock:
            if self._status == "idle":
                self._status = "running"
            self._rounds.append(row)
            for stat in record.client_stats:
                client = self._clients.setdefault(
                    stat.client_id,
                    {
                        "client_id": stat.client_id,
                        "rounds": 0,
                        "dropped": 0,
                        "stragglers": 0,
                        "total_turnaround_seconds": 0.0,
                        "max_turnaround_seconds": 0.0,
                        "last_ratio": 1.0,
                        "max_bound_utilization": 0.0,
                    },
                )
                client["rounds"] += 1
                client["dropped"] += 0 if stat.delivered else 1
                client["stragglers"] += 1 if (stat.delivered and not stat.aggregated) else 0
                client["total_turnaround_seconds"] += stat.turnaround_seconds
                client["max_turnaround_seconds"] = max(
                    client["max_turnaround_seconds"], stat.turnaround_seconds
                )
                client["last_ratio"] = stat.compression_ratio
                client["max_bound_utilization"] = max(
                    client["max_bound_utilization"], stat.bound_utilization
                )
            if runtime is not None:
                cache = getattr(runtime, "broadcast_cache", None)
                if cache is not None:
                    self._cache = {
                        "hits": cache.hits,
                        "misses": cache.misses,
                        "serializations": cache.serializations,
                        "compressions": cache.compressions,
                    }
        self.emit(ROUND_COMPLETED, **row)

    def checkpoint_written(self, round_index: int, path) -> None:
        """Record a persisted snapshot (drives the checkpoint-age display)."""
        with self._lock:
            self._checkpoint = {
                "last_round": int(round_index),
                "path": str(path),
                "written_at": self._clock(),
                "count": int(self._checkpoint.get("count", 0)) + 1,
            }
        self.emit(CHECKPOINT_WRITTEN, round=int(round_index), path=str(path))

    def fault_injected(self, round_index: int, fault: BaseException) -> None:
        """Record an injected failure firing after ``round_index``."""
        entry = {
            "round": int(round_index),
            "kind": type(fault).__name__,
            "detail": str(fault),
        }
        with self._lock:
            self._faults.append(entry)
        self.emit(
            FAULT_INJECTED,
            round=entry["round"],
            fault_kind=entry["kind"],
            detail=entry["detail"],
        )

    def run_finished(self, status: str = "completed", error: Optional[BaseException] = None) -> None:
        """Mark the run over (``status`` is ``"completed"`` or ``"crashed"``)."""
        with self._lock:
            self._status = status
            if self._run:
                self._run["finished_at"] = self._clock()
                self._run["error"] = None if error is None else f"{type(error).__name__}: {error}"
        self.emit(RUN_FINISHED, status=status)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-compatible deep copy of the aggregated live state."""
        with self._lock:
            now = self._clock()
            rounds_completed = len(self._rounds)
            target = int(self._run.get("target_rounds", 0) or 0)
            checkpoint = dict(self._checkpoint)
            if checkpoint:
                checkpoint["age_seconds"] = max(0.0, now - float(checkpoint["written_at"]))
                checkpoint["rounds_behind"] = max(
                    0, (self._rounds[-1]["round"] if self._rounds else 0) - checkpoint["last_round"]
                )
            return {
                "status": self._status,
                "run": copy.deepcopy(self._run),
                "progress": {
                    "rounds_completed": rounds_completed,
                    "target_rounds": target,
                    "fraction": (rounds_completed / target) if target else 0.0,
                },
                "rounds": copy.deepcopy(self._rounds),
                "clients": copy.deepcopy(sorted(self._clients.values(), key=lambda c: c["client_id"])),
                "codec": {
                    "error_bound_trajectory": [r["error_bound"] for r in self._rounds],
                    "ratio_trajectory": [r["ratio"] for r in self._rounds],
                    "bound_utilization_trajectory": [
                        r["max_bound_utilization"] for r in self._rounds
                    ],
                },
                "broadcast_cache": dict(self._cache),
                "checkpoint": checkpoint,
                "faults": copy.deepcopy(self._faults),
                "event_count": len(self._events),
            }

    def events(self) -> List[MonitorEvent]:
        """The retained event log (newest last)."""
        with self._lock:
            return list(self._events)


__all__ = [
    "MonitorEvent",
    "RunMonitor",
    "RUN_STARTED",
    "ROUND_COMPLETED",
    "CHECKPOINT_WRITTEN",
    "FAULT_INJECTED",
    "RUN_FINISHED",
]
