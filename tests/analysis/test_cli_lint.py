"""CLI surface of ``repro lint``: exit codes, filters, formats, baseline."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

DIRTY = "import numpy as np\nnp.random.seed(1)\n"
CLEAN = "VALUE = 1\n"


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A tiny lintable tree; cwd moved there so default-baseline logic sees it."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "dirty.py").write_text(DIRTY)
    (tmp_path / "pkg" / "clean.py").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_clean_tree_exits_zero(tree, capsys):
    assert main(["lint", "pkg/clean.py"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_findings_exit_one_with_rule_and_location(tree, capsys):
    assert main(["lint", "pkg"]) == 1
    out = capsys.readouterr().out
    assert "dirty.py:2:1: DET001" in out


def test_rule_filter(tree, capsys):
    assert main(["lint", "pkg", "--rule", "DET004"]) == 0
    assert main(["lint", "pkg", "--rule", "DET001"]) == 1


def test_unknown_rule_exits_two(tree, capsys):
    assert main(["lint", "pkg", "--rule", "NOPE999"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_missing_path_exits_two(tree, capsys):
    assert main(["lint", "no/such/dir"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_json_format(tree, capsys):
    assert main(["lint", "pkg", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.lint"
    assert payload["counts"] == {"DET001": 1}
    assert payload["findings"][0]["rule"] == "DET001"


def test_write_baseline_then_lint_is_green(tree, capsys):
    assert main(["lint", "pkg", "--write-baseline"]) == 0
    assert (tree / ".repro-lint-baseline.json").exists()
    # The default baseline file is now picked up automatically.
    assert main(["lint", "pkg"]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_no_baseline_flag_reports_parked_findings(tree, capsys):
    assert main(["lint", "pkg", "--write-baseline"]) == 0
    assert main(["lint", "pkg", "--no-baseline"]) == 1


def test_explicit_baseline_path(tree, tmp_path, capsys):
    baseline = tmp_path / "custom-baseline.json"
    assert main(["lint", "pkg", "--write-baseline", "--baseline", str(baseline)]) == 0
    assert baseline.exists()
    assert main(["lint", "pkg", "--baseline", str(baseline)]) == 0


def test_corrupt_baseline_exits_two(tree, capsys):
    (tree / "bad.json").write_text("{not json")
    assert main(["lint", "pkg", "--baseline", "bad.json"]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_list_rules(tree, capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET003", "DET004", "FORK001"):
        assert rule_id in out
    assert "invariant:" in out
    assert "[deep]" not in out


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--deep"], "unrecognized arguments"),
        (["--cache-dir", "x"], "unrecognized arguments"),
        (["--no-cache"], "unrecognized arguments"),
        (["--rule", "CONC001"], "unknown lint rule"),
    ],
    ids=["deep", "cache-dir", "no-cache", "conc001"],
)
def test_removed_whole_program_surface_exits_two(tree, argv, error, capsys):
    try:
        code = main(["lint", "pkg", *argv])
    except SystemExit as usage_error:
        code = usage_error.code
    assert code == 2
    assert error in capsys.readouterr().err


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
def test_sarif_output_is_valid_and_carries_findings(tree, capsys):
    assert main(["lint", "pkg", "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"DET001", "FORK001"} <= rule_ids
    results = run["results"]
    assert [result["ruleId"] for result in results] == ["DET001"]
    location = results[0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("dirty.py")
    assert location["region"]["startLine"] == 2


def test_sarif_without_deep_lists_only_shallow_rules(tree, capsys):
    assert main(["lint", "pkg", "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    rule_ids = {rule["id"] for rule in payload["runs"][0]["tool"]["driver"]["rules"]}
    assert "DET001" in rule_ids and "CONC001" not in rule_ids


# ----------------------------------------------------------------------
# --changed (git-scoped fast path)
# ----------------------------------------------------------------------
def _git(tree, *args):
    import subprocess

    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t.invalid", *args],
        cwd=tree, check=True, capture_output=True,
    )


@pytest.fixture
def git_tree(tree):
    _git(tree, "init", "-q")
    _git(tree, "add", ".")
    _git(tree, "commit", "-q", "-m", "seed")
    return tree


def test_changed_scopes_to_modified_files(git_tree, capsys):
    # Nothing changed: nothing linted.
    assert main(["lint", "pkg", "--changed"]) == 0
    assert "0 finding(s) in 0 file(s)" in capsys.readouterr().out
    # Introduce a shallow finding in one file; only that file is linted.
    (git_tree / "pkg" / "clean.py").write_text(DIRTY)
    assert main(["lint", "pkg", "--changed"]) == 1
    out = capsys.readouterr().out
    assert "clean.py" in out and "1 file(s)" in out


def test_changed_outside_git_exits_two(tree, monkeypatch, capsys):
    monkeypatch.setenv("GIT_DIR", str(tree / "definitely-not-a-repo"))
    assert main(["lint", "pkg", "--changed"]) == 2
    assert "git status failed" in capsys.readouterr().err
