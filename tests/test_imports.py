"""Every module of ``repro`` imports, at load time, only ``repro``, numpy and
the standard library.

``requirements.txt`` names numpy alone, so a module-level import of anything
else (scipy, say) breaks ``import repro.<module>`` on a clean install.  This
reads every module's source with ``ast`` instead of importing it, so it covers
modules no other test imports.  Imports inside a function run only when it is
called and are not load-time imports.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWED = {"repro", "numpy"} | set(sys.stdlib_module_names)
MODULES = sorted(SOURCE.rglob("*.py"))


def load_time_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements that run when the module loads: at module level, in
    its ``if`` / ``try`` / ``with`` blocks and in class bodies, not in
    functions."""
    pending: List[ast.AST] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))


def top_level_names(node: ast.stmt) -> List[str]:
    if isinstance(node, ast.ImportFrom):
        return ["repro"] if node.level else [node.module.split(".")[0]]
    return [alias.name.split(".")[0] for alias in node.names]


def test_the_source_tree_is_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SOURCE)))
def test_module_imports_only_repro_numpy_and_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted(
        f"line {node.lineno}: {name}"
        for node in load_time_imports(tree)
        for name in top_level_names(node)
        if name not in ALLOWED
    )
    assert not foreign, foreign
