"""Observability layer: live run monitoring and post-run error analysis.

Three pieces, deliberately decoupled from the simulation they observe:

* :class:`RunMonitor` (:mod:`repro.obs.monitor`) — a thread-safe live view
  that :class:`repro.fl.runtime.FederatedRuntime` feeds as a run progresses
  (progress, per-client straggler/drop stats, codec ratio and error-bound
  trajectories, faults, checkpoint age).  It is strictly passive: it reads
  completed records and never touches an RNG stream, so a monitored run is
  bit-identical to an unmonitored one.
* :class:`MonitorServer` (:mod:`repro.obs.server`) — a stdlib-only HTTP
  status endpoint plus a minimal HTML dashboard over a live monitor
  (``python -m repro.cli fl --monitor-port 8700``).  Routes live in
  :mod:`repro.obs.routes`, snapshot shaping in :mod:`repro.obs.services`.
* :func:`build_error_analysis` (:mod:`repro.obs.report`) — a deterministic
  post-run markdown report over a :class:`~repro.fl.history.TrainingHistory`
  (``python -m repro.cli report --history history.json``): rounds/tensors
  where the error bound was nearly violated, adaptive-controller thrash, the
  worst clients/links, and the fault/checkpoint timeline.
"""

from repro.obs.monitor import RunMonitor
from repro.obs.report import build_error_analysis
from repro.obs.server import MonitorServer

__all__ = [
    "RunMonitor",
    "MonitorServer",
    "build_error_analysis",
]
