"""Integration-suite fixtures: the runtime RNG/clock sanitizer.

The determinism suites (checkpoint-resume, process-executor, fleet-scale,
thread-stress, executor-parity) assert bit-identity; while they run, the sanitizer from
:mod:`repro.analysis.sanitizer` patches the legacy global ``numpy.random``
API, the stdlib ``random`` module functions and ``time.time`` to raise
:class:`~repro.analysis.sanitizer.DeterminismViolation` when called from repo
runtime code.  Any dynamic escape the AST rules (DET001/DET002) cannot see —
getattr dispatch, a helper quietly reaching for the global stream — fails the
suite loudly instead of surfacing three suites later as an unexplained
divergence.  Fork-based executor workers inherit the active patches.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import sanitized

#: Module basenames the sanitizer wraps (the bit-identity suites).
SANITIZED_MODULES = frozenset({
    "test_checkpoint_resume",
    "test_process_executor",
    "test_fleet_scale",
    "test_thread_stress_determinism",
    "test_executor_parity",
})


@pytest.fixture(autouse=True)
def rng_clock_sanitizer(request):
    """Activate the RNG/clock sanitizer around every determinism test."""
    module = request.module.__name__.rpartition(".")[2]
    if module in SANITIZED_MODULES:
        with sanitized(rng=True, clock=True):
            yield
    else:
        yield
