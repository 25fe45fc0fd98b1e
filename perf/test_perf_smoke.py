"""Smoke test of the benchmark itself (tiny models and fleets, 1-2 ops each).

Asserts no timing: only that every workload runs, checks its outputs, and
reports exactly the names ``BENCHMARK.json`` declares.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perf"), str(ROOT / "src")]

from fedbench.compare import compare  # noqa: E402
from fedbench.spans import SpanRecorder, layer_targets  # noqa: E402
from fedbench.timing import K0, run_ops  # noqa: E402
from fedbench.workloads import (  # noqa: E402
    WORKLOADS,
    CodecOp,
    Outcome,
    Run,
    run_workload,
)

from repro.core import FedSZCompressor  # noqa: E402
from repro.nn.models import create_model  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}


ROUND_S_BOUND = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "round_s")


class FlatKernel:
    """Stands in for the 90 ms reference-kernel reading: nothing here is timed.

    (The real kernel runs in ``test_command_line_prints_one_result_object_last``.)
    """

    def reading(self) -> float:
        return K0


@pytest.fixture
def kernel():
    return FlatKernel()


def test_benchmark_json_names_the_workloads_that_exist():
    assert [workload["name"] for workload in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert "setup_s" in END_TO_END
    assert len(PER_LAYER) <= 128


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_the_declared_names_and_fails_no_op(name, kernel, tmp_path):
    def smoke(trace):
        return run_workload(name, Run(3, 0.05, trace, True, tmp_path, kernel))

    plain = smoke(trace=False)
    assert set(plain.metrics) == END_TO_END
    assert all(value > 0 for value in plain.metrics.values()), plain.metrics
    assert plain.attempted >= 2 and plain.failed == 0, plain.notes

    # The traced run also checks that deterministic_rows() equals the untraced
    # run's, and counts a mismatch as a failed op.
    traced = smoke(trace=True)
    assert set(traced.metrics) <= PER_LAYER
    assert traced.failed == 0, traced.notes
    assert traced.metrics["trace.spans_missing"] == 0
    assert traced.metrics["trace.coverage"] > 0.5
    digest = "payload_sha256" if name.startswith("codec") else "history_sha256"
    assert traced.notes[digest] == plain.notes[digest]


def test_command_line_prints_one_result_object_last():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", "codec_bulk", "--seed", "5",
         "--seconds", "0.05", "--trace", "0", "--scale", "smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(set(entry) == {"value", "unit"} for entry in result["metrics"].values())


def test_bit_flipped_payload_is_counted_as_a_failed_op(kernel):
    state = create_model("alexnet", "tiny", seed=1).state_dict()
    op = CodecOp(state, FedSZCompressor(error_bound=1e-2))
    honest = op.compressor.compress

    def flipped(state_dict):
        payload = bytearray(honest(state_dict))
        payload[len(payload) // 2] ^= 0x10
        return bytes(payload)

    op.compressor.compress = flipped
    outcome = Outcome()
    outcome.count(run_ops(kernel, op, seconds=0.0, min_ops=2))
    assert (outcome.attempted, outcome.failed) == (2, 2)
    assert outcome.notes["first_failure"]


def _results(round_s):
    runs = []
    for workload in WORKLOADS:
        for seed, wobble in enumerate((0.99, 1.0, 1.01)):
            metrics = {name: {"value": 10.0, "unit": "x"} for name in END_TO_END}
            metrics["round_s"] = {"value": round_s * wobble, "unit": "s"}
            runs.append({"workload": workload, "seed": seed, "trace": 0, "attempted": 10,
                         "failed": 0, "metrics": metrics})
    return {"runs": runs}


def test_compare_flags_a_round_slower_than_the_bound_allows():
    base = _results(round_s=0.40)
    lines, regressed = compare(BENCHMARK, base, copy.deepcopy(base))
    assert not regressed and not any(" regressed " in line for line in lines)

    lines, regressed = compare(BENCHMARK, base, _results(round_s=0.40 * (1.05 + ROUND_S_BOUND)))
    assert regressed
    flagged = [line for line in lines if " regressed " in line]
    assert len(flagged) == len(WORKLOADS) and all("round_s" in line for line in flagged)

    lines, regressed = compare(BENCHMARK, base, _results(round_s=0.40 * (0.95 - ROUND_S_BOUND)))
    assert not regressed and sum(" improved " in line for line in lines) == len(WORKLOADS)

    lines, regressed = compare(BENCHMARK, base, _results(round_s=0.40 * (1 + ROUND_S_BOUND / 2)))
    assert not regressed and not any(" improved " in line for line in lines)

    more_failures = copy.deepcopy(base)
    more_failures["runs"][0]["failed"] = 1
    assert compare(BENCHMARK, base, more_failures)[1]


def test_installing_then_uninstalling_spans_restores_every_attribute():
    model_cls = type(create_model("alexnet", "tiny", seed=0))
    from repro.fl.scheduler import SynchronousScheduler

    targets = layer_targets(model_cls, SynchronousScheduler)
    before = [vars(owner).get(attr) for owner, attr, _ in targets]
    recorder = SpanRecorder()
    recorder.install(targets)
    assert recorder.missing == []
    patched = [vars(owner).get(attr) for owner, attr, _ in targets]
    assert any(new is not old for new, old in zip(patched, before))
    recorder.uninstall()
    after = [vars(owner).get(attr) for owner, attr, _ in targets]
    assert all(new is old for new, old in zip(after, before))
