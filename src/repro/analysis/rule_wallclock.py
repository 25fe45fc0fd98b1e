"""DET002 — wall-clock must never contaminate simulation state.

Two checks:

1. **Banned sources.** ``time.time``/``time.time_ns`` and the ``datetime``
   "now" family are host wall-clock; nothing under ``src/repro`` may call
   them except ``utils/timing.py`` (the sanctioned measurement module) and
   explicitly justified call sites (inline suppression with a reason).
   ``time.perf_counter``/``time.monotonic`` stay legal for *measurement*.

2. **Taint into deterministic fields.** Any value derived from a timing call
   (including ``perf_counter``) that is passed as a keyword argument — or
   assigned to an attribute — named after a field of
   ``TrainingHistory.deterministic_rows()`` is flagged: those fields must be
   simulation-determined (modelled link times, byte counts), never measured,
   or resume==uninterrupted and serial==parallel comparisons break by
   scheduling noise.  The taint tracking is shallow and per-function scope —
   deliberately simple, matched by the runtime sanitizer which catches what
   the AST cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.engine import Finding, ModuleContext
from repro.analysis.rules import LintRule, register_rule
from repro.fl.history import (
    DETERMINISTIC_CLIENT_ROUND_STAT_FIELDS,
    DETERMINISTIC_EPOCH_TIME_BREAKDOWN_FIELDS,
    DETERMINISTIC_ROUND_RECORD_FIELDS,
)

#: Never legal outside utils/timing.py (real wall-clock).
_BANNED_SOURCES = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Legal for measurement, but their results are tainted for check 2.
_MEASUREMENT_SOURCES = frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
}) | _BANNED_SOURCES

#: Fields of TrainingHistory.deterministic_rows() — the bit-identity surface —
#: as fl/history.py classifies them.  (Measured fields like
#: train_seconds/compress_seconds, and simulated_round_seconds, which is
#: derived from measured turnarounds, are observational there: measurement
#: belongs in them.)
DETERMINISTIC_FIELDS = (
    DETERMINISTIC_CLIENT_ROUND_STAT_FIELDS
    | DETERMINISTIC_ROUND_RECORD_FIELDS
    | DETERMINISTIC_EPOCH_TIME_BREAKDOWN_FIELDS
)

_EXEMPT_SUFFIXES = ("utils/timing.py",)


@register_rule
class WallClockRule(LintRule):
    rule_id = "DET002"
    summary = "no wall-clock sources; no timing values in deterministic fields"
    invariant = (
        "deterministic_rows() fields are simulation-determined; host clocks "
        "stay in measurement-only fields so resume/executor comparisons hold"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.path.endswith(_EXEMPT_SUFFIXES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                resolved = module.resolve(node.func)
                if resolved in _BANNED_SOURCES:
                    yield self.finding(
                        module, node,
                        f"wall-clock call {resolved}() outside utils/timing.py; "
                        "simulation code must use modelled time, measurement "
                        "code time.perf_counter()",
                    )
        for scope in ast.walk(module.tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_taint(module, scope)

    # ------------------------------------------------------------------
    # Shallow per-function taint: timing call -> name -> deterministic sink
    # ------------------------------------------------------------------
    def _check_taint(self, module: ModuleContext, fn: ast.FunctionDef) -> Iterator[Finding]:
        tainted: Set[str] = set()

        def is_tainted(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Call):
                return module.resolve(expr.func) in _MEASUREMENT_SOURCES
            if isinstance(expr, ast.Name):
                return expr.id in tainted
            if isinstance(expr, ast.BinOp):
                return is_tainted(expr.left) or is_tainted(expr.right)
            if isinstance(expr, ast.UnaryOp):
                return is_tainted(expr.operand)
            if isinstance(expr, ast.IfExp):
                return is_tainted(expr.body) or is_tainted(expr.orelse)
            return False

        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and is_tainted(node.value):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            tainted.add(name.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                if is_tainted(node.value) or node.target.id in tainted:
                    if is_tainted(node.value):
                        tainted.add(node.target.id)

        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg in DETERMINISTIC_FIELDS and is_tainted(keyword.value):
                        yield self.finding(
                            module, keyword.value,
                            f"timing-derived value passed as {keyword.arg}=, a "
                            "deterministic_rows() field; deterministic fields "
                            "must be simulation-modelled, not measured",
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                value = node.value
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if not is_tainted(value):
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in DETERMINISTIC_FIELDS
                    ):
                        yield self.finding(
                            module, node,
                            f"timing-derived value assigned to .{target.attr}, "
                            "a deterministic_rows() field; deterministic "
                            "fields must be simulation-modelled, not measured",
                        )
