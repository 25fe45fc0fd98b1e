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

Deep rules (whole-program, ``repro lint --deep``)
-------------------------------------------------
CONC001  lock-guarded attributes never mutated outside the lock
CONC002  lock-guarded attributes never read outside the lock
FORK002  worker-crossing dataclasses pickle-safe *transitively*
DET005   interprocedural RNG/clock taint into deterministic/checkpoint state
EXH001   every pushed event kind has a dispatch arm somewhere
EXH002   metric fields classified det/obs; codec state checkpoint-covered

The deep pass runs on a project-wide call graph and fact index
(:mod:`repro.analysis.callgraph`) with an interprocedural taint engine
(:mod:`repro.analysis.dataflow`); the index is cached on disk keyed by a
content hash, so unchanged reruns skip parsing entirely.
"""

from repro.analysis.baseline import Baseline, write_baseline
from repro.analysis.callgraph import (
    DEFAULT_CACHE_DIR,
    INDEX_FORMAT_VERSION,
    ProjectIndex,
)
from repro.analysis.deep import (
    DeepRule,
    available_deep_rules,
    deep_rule_descriptions,
    get_deep_rule,
    get_deep_rules,
    lint_deep,
    lint_deep_sources,
    register_deep_rule,
)
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
    "DEFAULT_CACHE_DIR",
    "DeepRule",
    "DeterminismViolation",
    "Finding",
    "INDEX_FORMAT_VERSION",
    "LintResult",
    "LintRule",
    "ModuleContext",
    "ProjectIndex",
    "available_deep_rules",
    "available_rules",
    "deep_rule_descriptions",
    "get_deep_rule",
    "get_deep_rules",
    "get_rule",
    "get_rules",
    "lint_deep",
    "lint_deep_sources",
    "lint_paths",
    "lint_source",
    "register_deep_rule",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_descriptions",
    "sanitized",
    "write_baseline",
]
