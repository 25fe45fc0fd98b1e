"""Tests for the experiment CLI."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.cli import available_experiments, build_parser, main, run_experiment


def test_importing_the_cli_and_the_experiments_loads_no_scipy():
    code = (
        "import sys, repro.cli, repro.experiments; "
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, check=True
    ).stdout.strip()
    assert loaded == "[]"


def test_available_experiments_cover_all_tables_and_figures():
    names = available_experiments()
    assert {"table1", "table2", "table3", "table4", "table5"} <= set(names)
    assert {f"figure{i}" for i in range(2, 11)} <= set(names)
    assert len(names) == 14


def test_run_experiment_quick_mode_returns_rows():
    result = run_experiment("figure3", quick=True)
    assert result.rows
    with pytest.raises(KeyError):
        run_experiment("table99")


def test_cli_list_command(capsys):
    assert main(["list"]) == 0
    captured = capsys.readouterr()
    assert "table1" in captured.out
    assert "figure10" in captured.out


def test_cli_run_prints_table(capsys):
    assert main(["run", "table4", "--quick"]) == 0
    captured = capsys.readouterr()
    assert "CIFAR-10" in captured.out
    assert "Caltech101" in captured.out


def test_cli_run_unknown_experiment_errors(capsys):
    assert main(["run", "table99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_run_writes_output_file(tmp_path, capsys):
    destination = tmp_path / "figure3.txt"
    assert main(["run", "figure3", "--quick", "--output", str(destination)]) == 0
    assert destination.exists()
    assert "mobilenetv2" in destination.read_text()


def test_cli_output_directory_mode(tmp_path):
    assert main(["run", "table4", "--quick", "--output", str(tmp_path / "results")]) == 0
    assert (tmp_path / "results" / "table4.txt").exists()


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_cli_fl_subcommand_runs_layered_runtime(capsys):
    exit_code = main(
        [
            "fl",
            "--rounds", "1",
            "--samples", "160",
            "--clients", "2",
            "--executor", "process",
            "--workers", "2",
            "--scheduler", "async",
            "--per-client",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "turnaround_seconds" in out  # per-client table printed


def test_cli_fl_checkpoint_crash_and_resume(tmp_path, capsys):
    """The unreliable-server scenario exits 3 at the simulated crash, leaves
    resumable snapshots behind, and --resume completes the run."""
    directory = tmp_path / "ckpts"
    common = [
        "fl",
        "--scenario", "unreliable-server",
        "--clients", "4",
        "--rounds", "4",
        "--samples", "160",
        "--checkpoint-dir", str(directory),
    ]
    assert main(common) == 3
    err = capsys.readouterr().err
    assert "simulated server crash" in err
    assert "--resume" in err
    assert any(path.suffix == ".ckpt" for path in directory.iterdir())

    assert main(common + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out


def test_cli_fl_resume_requires_checkpoint_dir(capsys):
    exit_code = main(["fl", "--rounds", "1", "--samples", "160",
                      "--clients", "2", "--resume"])
    assert exit_code == 2
    assert "--checkpoint-dir" in capsys.readouterr().err


def test_cli_fl_checkpoint_every_requires_checkpoint_dir(capsys):
    exit_code = main(["fl", "--rounds", "1", "--samples", "160",
                      "--clients", "2", "--checkpoint-every", "5"])
    assert exit_code == 2
    assert "--checkpoint-dir" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--scheduler", "async"),
        ("--deadline", "2.5"),
        ("--mixing-rate", "0.3"),
        ("--heterogeneous", None),
        ("--straggler", "1"),
        ("--dropout", "0.1"),
    ],
)
def test_cli_fl_scenario_refuses_flags_the_preset_owns(flag, value, capsys):
    """A preset supplies scheduler, links and dropout; a flag that would be
    dropped on the floor is a usage error, not a silently different run."""
    extra = [flag] if value is None else [flag, value]
    exit_code = main(["fl", "--scenario", "uniform-edge", "--rounds", "1", *extra])
    assert exit_code == 2
    message = capsys.readouterr().err
    assert flag in message and "--scenario" in message


def test_cli_fl_has_no_engine_flag(capsys):
    with pytest.raises(SystemExit) as usage:
        main(["fl", "--engine", "events"])
    assert usage.value.code == 2


@pytest.mark.parametrize("removed", ["thread", "parallel"])
def test_cli_fl_refuses_the_removed_thread_executor(removed, capsys):
    with pytest.raises(SystemExit) as usage:
        main(["fl", "--executor", removed])
    assert usage.value.code == 2
    message = capsys.readouterr().err
    assert "'serial'" in message and "'process'" in message


def test_cli_fl_history_out_then_report(tmp_path, capsys):
    """`fl --history-out` writes a loadable history; `report` renders it."""
    history_path = tmp_path / "history.json"
    assert main(["fl", "--model", "alexnet", "--rounds", "1", "--samples", "60",
                 "--clients", "2", "--history-out", str(history_path)]) == 0
    capsys.readouterr()
    document = json.loads(history_path.read_text())
    assert document["schema"] == "repro.history"
    assert len(document["records"]) == 1

    report_path = tmp_path / "report.md"
    assert main(["report", "--history", str(history_path),
                 "--out", str(report_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    text = report_path.read_text()
    assert text.startswith("# Run error-analysis report")
    assert "## Error-bound pressure" in text
    assert "## Worst clients / links" in text


def test_cli_fl_monitor_port_serves_live_dashboard(capsys):
    import re
    import urllib.request

    assert main(["fl", "--model", "alexnet", "--rounds", "1", "--samples", "60",
                 "--clients", "2", "--monitor-port", "0"]) == 0
    out = capsys.readouterr().out
    match = re.search(r"monitor: (http://127\.0\.0\.1:\d+)/", out)
    assert match is not None
    # The server is stopped once the run finishes.
    with pytest.raises(OSError):
        urllib.request.urlopen(f"{match.group(1)}/api/health", timeout=2)


def test_cli_report_requires_an_input(capsys):
    assert main(["report"]) == 2
    assert "--history" in capsys.readouterr().err


def test_cli_report_rejects_foreign_history(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"schema": "nope"}')
    assert main(["report", "--history", str(bogus)]) == 2
    assert "not a training-history file" in capsys.readouterr().err


def test_cli_has_no_bench_verb(capsys):
    """Every performance number comes from ``perf/run.py``; the CLI has none."""
    with pytest.raises(SystemExit) as exited:
        main(["bench", "run", "--workload", "tiny"])
    assert exited.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_cli_report_takes_no_bench_input(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["report", "--bench", str(tmp_path / "bench.json")])
    assert exited.value.code == 2
    assert "unrecognized arguments: --bench" in capsys.readouterr().err
