"""Tests for the benchmark workload registry and the CLI bench runner."""

from __future__ import annotations

import json

import pytest

from repro.bench import available_workloads, get_workload, run_workload, validate_report
from repro.cli import main


def test_registry_contains_the_documented_workloads():
    names = {spec.name for spec in available_workloads()}
    assert {
        "tiny", "huffman", "bitstream", "codecs", "fl_round", "checkpoint",
    } <= names


def test_committed_checkpoint_baseline_is_valid():
    from pathlib import Path

    baseline = (
        Path(__file__).resolve().parents[2] / "benchmarks" / "baselines" / "checkpoint.json"
    )
    report = json.loads(baseline.read_text())
    validate_report(report)
    assert report["workload"] == "checkpoint"
    assert {
        "checkpoint_tiny_snapshot",
        "checkpoint_tiny_restore",
        "checkpoint_paper_snapshot",
        "checkpoint_paper_restore",
    } <= set(report["metrics"])


def test_get_workload_is_case_insensitive_and_rejects_unknown():
    assert get_workload("TINY").name == "tiny"
    with pytest.raises(KeyError):
        get_workload("does-not-exist")


def test_tiny_workload_produces_expected_metrics():
    records = run_workload("tiny", warmup=0, repeats=1)
    names = [record.name for record in records]
    assert "huffman_encode" in names
    assert "huffman_decode" in names
    assert "pack_bit_flags" in names
    assert "codec_sz2_roundtrip" in names
    assert "fl_round_tiny" in names
    for record in records:
        assert record.seconds >= 0.0
    codec = next(record for record in records if record.name == "codec_sz2_roundtrip")
    assert set(codec.phases) == {"compress", "decompress"}
    assert codec.extra["ratio"] > 1.0


def test_cli_bench_writes_schema_versioned_json(tmp_path, capsys):
    destination = tmp_path / "BENCH_tiny.json"
    assert main(
        ["bench", "--workload", "tiny", "--out", str(destination),
         "--warmup", "0", "--repeats", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "BENCH tiny" in out
    assert str(destination) in out
    report = json.loads(destination.read_text())
    validate_report(report)
    assert report["workload"] == "tiny"
    assert report["config"] == {"warmup": 0, "repeats": 1}


def test_cli_bench_list_and_unknown_workload(capsys):
    assert main(["bench", "list"]) == 0
    assert "tiny" in capsys.readouterr().out
    assert main(["bench", "--workload", "nope"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_committed_tiny_baseline_is_valid():
    from pathlib import Path

    baseline = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines" / "tiny.json"
    report = json.loads(baseline.read_text())
    validate_report(report)
    assert report["workload"] == "tiny"
    current_names = {record.name for record in run_workload("tiny", warmup=0, repeats=1)}
    # The gate fails on metrics missing from a run, so the committed baseline
    # must never reference metrics the workload no longer produces.
    assert set(report["metrics"]) <= current_names
