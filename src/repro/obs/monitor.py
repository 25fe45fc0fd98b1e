"""Thread-safe live view of a running federated fleet.

:class:`RunMonitor` is the write side of the observability layer: the
runtime calls its five hook methods (``run_started`` / ``round_completed`` /
``checkpoint_written`` / ``fault_injected`` / ``run_finished``) as a run
progresses, and any number of reader threads — the HTTP status server, tests,
a notebook — call :meth:`RunMonitor.snapshot` to get a JSON-compatible view
of the fleet at that instant.

Design constraints, in order:

1. **Passivity.**  The monitor only ever *reads* completed round records and
   the runtime's run metadata.  It draws from no RNG stream and mutates no
   runtime state, so attaching it cannot change a run's simulated outcome
   (``tests/obs/test_monitor_server.py`` pins monitored == unmonitored
   bit-for-bit).
2. **Thread safety.**  Every mutation and every snapshot happens under one
   lock; snapshots deep-copy the aggregated state so readers can serialize it
   without racing the training loop.
3. **Bounded memory.**  The aggregated per-round/per-client state is
   O(rounds + clients), which is what the dashboard renders.

Wall-clock timestamps (``time.time``) appear *only* in monitor data — they
feed checkpoint-age display and never flow back into the simulation.
"""

from __future__ import annotations

import copy
import threading
import time
from typing import Callable, Dict, List, Optional


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
    """Aggregated live state of one federated run (see module docstring)."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._lock = threading.Lock()
        # Late-bound so a monkeypatched time.time is honoured; the
        # default wall clock feeds monitor data only, never simulation state.
        self._clock = clock if clock is not None else time.time
        self._status = "idle"
        self._run: Dict[str, object] = {}
        self._rounds: List[Dict[str, object]] = []
        self._clients: Dict[int, Dict[str, object]] = {}
        self._faults: List[Dict[str, object]] = []
        self._checkpoint: Dict[str, object] = {}

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

    def round_completed(self, record) -> None:
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

    def checkpoint_written(self, round_index: int, path) -> None:
        """Record a persisted snapshot (drives the checkpoint-age display)."""
        with self._lock:
            self._checkpoint = {
                "last_round": int(round_index),
                "path": str(path),
                "written_at": self._clock(),
                "count": int(self._checkpoint.get("count", 0)) + 1,
            }

    def fault_injected(self, round_index: int, fault: BaseException) -> None:
        """Record an injected failure firing after ``round_index``."""
        entry = {
            "round": int(round_index),
            "kind": type(fault).__name__,
            "detail": str(fault),
        }
        with self._lock:
            self._faults.append(entry)

    def run_finished(self, status: str = "completed", error: Optional[BaseException] = None) -> None:
        """Mark the run over (``status`` is ``"completed"`` or ``"crashed"``)."""
        with self._lock:
            self._status = status
            if self._run:
                self._run["finished_at"] = self._clock()
                self._run["error"] = None if error is None else f"{type(error).__name__}: {error}"

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
                "checkpoint": checkpoint,
                "faults": copy.deepcopy(self._faults),
            }


__all__ = ["RunMonitor"]
