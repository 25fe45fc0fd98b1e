"""Core of the repro lint engine: parsing, suppression handling, output.

The engine is deliberately small: it turns each ``.py`` file into a
:class:`ModuleContext` (AST + resolved import aliases + per-line suppression
comments) and hands it to every registered rule.  All repo knowledge lives in
the rule modules; all mechanics live here.

Suppressions
------------
A finding on a line carrying ``# repro-lint: disable=DET001`` (comma-separate
several ids, or ``disable=all``) is dropped.  Anything after the rule list is
a free-form justification and is encouraged::

    np.random.seed(seed)  # repro-lint: disable=DET001 -- sanctioned global entry

Pre-existing findings can instead be parked in a baseline file (see
:mod:`repro.analysis.baseline`) and burned down without blocking CI.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: JSON output schema tag and version of the lint report.
LINT_SCHEMA = "repro.lint"
LINT_SCHEMA_VERSION = 1

_SUPPRESSION_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line, used for line-drift-tolerant baseline
    #: fingerprints and human-readable baseline entries.
    line_text: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


class ModuleContext:
    """A parsed module plus the lookup helpers every rule needs."""

    def __init__(self, path: str, source: str) -> None:
        self.path = str(Path(path).as_posix())
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source)
        self.aliases = _import_aliases(self.tree)
        self.suppressions = _suppressed_lines(source)

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """The literal dotted name of a Name/Attribute chain (unresolved)."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of a call target, through imports.

        ``np.random.seed`` resolves to ``numpy.random.seed`` given
        ``import numpy as np``; a bare ``perf_counter`` resolves to
        ``time.perf_counter`` given ``from time import perf_counter``.
        Returns ``None`` for anything not rooted at an imported name, so
        method calls on local objects never alias into a module path.
        """
        dotted = self.dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if not rules:
            return False
        return "ALL" in rules or finding.rule.upper() in rules


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map every locally-bound import name to its fully-qualified origin."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                bound = name.asname or name.name.partition(".")[0]
                target = name.name if name.asname else name.name.partition(".")[0]
                aliases[bound] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                bound = name.asname or name.name
                aliases[bound] = f"{node.module}.{name.name}"
    return aliases


def _suppressed_lines(source: str) -> Dict[int, Set[str]]:
    """``{lineno: {RULE, ...}}`` for every ``# repro-lint: disable=`` comment."""
    suppressed: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = [
            (lineno, line)
            for lineno, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        ]
    for lineno, text in comments:
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        rules = {part.strip().upper() for part in match.group(1).split(",")}
        suppressed.setdefault(lineno, set()).update(rules - {""})
    return suppressed


@dataclass
class LintResult:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    checked_files: int = 0
    baselined: int = 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Sequence) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files kept as-is), sorted."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        else:
            files.append(path)
    # De-duplicate while keeping deterministic order.
    unique: List[Path] = []
    seen = set()
    for path in files:
        key = path.as_posix()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def lint_source(path: str, source: str, rules) -> List[Finding]:
    """Run ``rules`` over one module's source, honouring suppressions."""
    try:
        module = ModuleContext(path, source)
    except SyntaxError as error:
        return [
            Finding(
                rule="PARSE",
                path=str(Path(path).as_posix()),
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                message=f"file does not parse: {error.msg}",
            )
        ]
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(module):
            if not module.is_suppressed(finding):
                findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def lint_paths(paths: Sequence, rules) -> LintResult:
    """Run ``rules`` over every python file under ``paths``."""
    result = LintResult()
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        result.findings.extend(lint_source(str(file_path), source, rules))
        result.checked_files += 1
    result.findings.sort(key=Finding.sort_key)
    return result


def render_text(result: LintResult) -> str:
    """Human-readable report: one ``path:line:col: RULE message`` per line."""
    lines = [finding.render() for finding in result.findings]
    counts = result.counts_by_rule()
    summary = (
        f"{len(result.findings)} finding(s) in {result.checked_files} file(s)"
        + (f" ({result.baselined} baselined)" if result.baselined else "")
    )
    if counts:
        summary += "  [" + ", ".join(f"{rule}: {n}" for rule, n in counts.items()) + "]"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Schema-tagged JSON report (stable key order, sorted findings)."""
    payload = {
        "schema": LINT_SCHEMA,
        "version": LINT_SCHEMA_VERSION,
        "checked_files": result.checked_files,
        "baselined": result.baselined,
        "counts": result.counts_by_rule(),
        "findings": [finding.as_dict() for finding in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def render_sarif(result: LintResult, rule_descriptions: Sequence[Dict[str, str]] = ()) -> str:
    """SARIF 2.1.0 report, consumable by GitHub code scanning.

    ``rule_descriptions`` is the ``[{id, summary, invariant}, ...]`` list the
    registries expose; rules that produced no finding are still described so
    the scanning UI can show the full rule catalogue.
    """
    described = {d["id"] for d in rule_descriptions}
    rules = [
        {
            "id": d["id"],
            "shortDescription": {"text": d["summary"]},
            "fullDescription": {"text": d["invariant"]},
        }
        for d in rule_descriptions
    ]
    # Findings from rules outside the catalogue (e.g. PARSE) still need a
    # driver entry or the file is invalid SARIF.
    for rule_id in result.counts_by_rule():
        if rule_id not in described:
            rules.append({"id": rule_id, "shortDescription": {"text": rule_id}})
    payload = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "version": str(LINT_SCHEMA_VERSION),
                        "rules": rules,
                    }
                },
                "results": [
                    {
                        "ruleId": finding.rule,
                        "level": "error",
                        "message": {"text": finding.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": finding.path,
                                        "uriBaseId": "%SRCROOT%",
                                    },
                                    "region": {
                                        "startLine": finding.line,
                                        "startColumn": finding.col + 1,
                                    },
                                }
                            }
                        ],
                    }
                    for finding in result.findings
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)
