"""Rule registry for the repro lint engine.

Mirrors the codec registry's ergonomics (``register_predictor()``): a rule is
one class in one file — subclass :class:`LintRule`, decorate it with
:func:`register_rule`, and the engine, the CLI (``repro lint --rule``), the
JSON output and the self-tests all pick it up by its ``rule_id``.

Rules are *repo-specific* on purpose: they encode the determinism and
fork-safety invariants this codebase actually enforces at integration-test
time (bit-identical serial/process executions, resume==uninterrupted,
monitored==unmonitored), not generic style.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Type

from repro.analysis.engine import Finding, ModuleContext

#: Modules imported (once) by :func:`load_builtin_rules`; importing a rule
#: module registers its rules as a side effect, exactly like the codec
#: registrations at the bottom of ``compression/registry.py``.
_BUILTIN_RULE_MODULES = (
    "repro.analysis.rule_rng",
    "repro.analysis.rule_wallclock",
    "repro.analysis.rule_codec_protocol",
    "repro.analysis.rule_exceptions",
    "repro.analysis.rule_fork_safety",
)

_RULES: Dict[str, Type["LintRule"]] = {}


class LintRule(ABC):
    """One static check, identified by a stable ``rule_id`` (e.g. DET001)."""

    #: Stable identifier used in output, ``--rule`` filters, inline
    #: ``# repro-lint: disable=<id>`` suppressions and the baseline file.
    rule_id: str = "RULE000"

    #: One-line summary shown by ``repro lint --list-rules``.
    summary: str = ""

    #: The repo invariant the rule protects (shown in ``--list-rules -v``
    #: style output and the README table).
    invariant: str = ""

    @abstractmethod
    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield a :class:`Finding` for every violation in ``module``."""

    def finding(self, module: ModuleContext, node, message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.rule_id,
            path=module.path,
            line=line,
            col=col,
            message=message,
            line_text=module.line_at(line),
        )


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator registering (or replacing) a rule under its id."""
    _RULES[cls.rule_id] = cls
    return cls


def load_builtin_rules() -> None:
    """Import every built-in rule module (idempotent)."""
    for module_name in _BUILTIN_RULE_MODULES:
        importlib.import_module(module_name)


def available_rules() -> List[str]:
    """Sorted ids of every registered rule."""
    load_builtin_rules()
    return sorted(_RULES)


def get_rule(rule_id: str) -> LintRule:
    """Instantiate the rule registered under ``rule_id``."""
    load_builtin_rules()
    try:
        cls = _RULES[rule_id.upper()]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {rule_id!r}; available: {available_rules()}"
        ) from None
    return cls()


def get_rules(rule_ids: Optional[Iterable[str]] = None) -> List[LintRule]:
    """Instantiate the requested rules (all registered rules by default)."""
    if rule_ids is None:
        return [get_rule(rule_id) for rule_id in available_rules()]
    return [get_rule(rule_id) for rule_id in rule_ids]


def rule_descriptions() -> List[Dict[str, str]]:
    """``[{id, summary, invariant}, ...]`` for every registered rule."""
    return [
        {
            "id": rule.rule_id,
            "summary": rule.summary,
            "invariant": rule.invariant,
        }
        for rule in get_rules()
    ]
