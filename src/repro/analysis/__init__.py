"""Determinism & fork-safety static analysis (``repro lint``).

An AST-based, repo-specific lint engine plus a runtime RNG/clock sanitizer.
The rules encode the invariants the integration suites enforce dynamically —
bit-identical serial/process execution, resume==uninterrupted,
monitored==unmonitored — so the cheap static pass catches the recurring bug
classes (unseeded RNG substreams, wall-clock in simulation fields,
unpicklable objects crossing the fork boundary) at diff time.

Shallow rules (per-module, ``repro lint``)
------------------------------------------
DET001   no global-state RNG (np.random.* module API, bare random.*)
DET002   no wall-clock sources; no timing values in deterministic fields
DET003   checkpoint_state/restore pair completeness; mutable codecs clone()
DET004   no bare/silent broad excepts; no assert-as-validation
FORK001  worker-crossing task specs stay lambda/closure/lock/thread-free

Runtime sanitizer (:mod:`repro.analysis.sanitizer`)
---------------------------------------------------
While active, repo runtime code that touches the global RNG or
``time.time`` raises :class:`DeterminismViolation`; the determinism
integration suites run under it.  What neither half sees is pinned by
tier-1 tests on the live objects: a history field left out of its det/obs
classification (``tests/fl/test_history.py``), an unpicklable object nested
in a worker message (``tests/integration/test_process_executor.py``), and a
clock value laundered through a helper into a deterministic row
(``tests/integration/test_checkpoint_resume.py``).
"""

from repro.analysis.baseline import Baseline, write_baseline
from repro.analysis.engine import (
    Finding,
    LintResult,
    ModuleContext,
    lint_paths,
    lint_source,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.rules import (
    LintRule,
    available_rules,
    get_rule,
    get_rules,
    register_rule,
    rule_descriptions,
)
from repro.analysis.sanitizer import DeterminismViolation, sanitized

__all__ = [
    "Baseline",
    "DeterminismViolation",
    "Finding",
    "LintResult",
    "LintRule",
    "ModuleContext",
    "available_rules",
    "get_rule",
    "get_rules",
    "lint_paths",
    "lint_source",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_descriptions",
    "sanitized",
    "write_baseline",
]
