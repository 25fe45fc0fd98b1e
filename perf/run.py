#!/usr/bin/env python3
"""The repo's benchmark.  See perf/README.md.

    python3 perf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perf/run.py all --seed 11 --runs 10 --out results.json
    python3 perf/run.py compare base.json candidate.json

The first form runs one workload in this process and prints, as the last line
of its output, one JSON object ``{correct, attempted, failed, metrics}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``all`` runs every workload in a fresh process per run (seeds
``seed``, ``seed+1``, ...) plus one traced run each, prints the spread of every
end-to-end metric, and writes everything to ``--out``.  ``compare`` applies the
bounds of ``BENCHMARK.json`` to two such files and exits non-zero on a
regression.
"""

from __future__ import annotations

import os

# One thread: with nproc=2, two BLAS threads oversubscribe the box and the
# round time measures contention rather than the program.  Must precede numpy.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perf"), str(ROOT / "src")]

from fedbench.compare import compare, end_to_end_values, spread  # noqa: E402


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_one(args, benchmark: dict) -> int:
    """Run one workload here; print its metrics and the result line."""
    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: src/repro not found; run from a checkout of the repo", file=sys.stderr)
        return 2
    from fedbench.workloads import Run, run_workload

    specs = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as work_dir:
        outcome = run_workload(
            args.workload,
            Run(
                seed=args.seed,
                seconds=args.seconds,
                trace=bool(args.trace),
                smoke=args.scale == "smoke",
                work_dir=Path(work_dir),
            ),
        )

    metrics = {}
    for spec in specs:
        # A layer the workload does not enter reports 0; so does a number that
        # could not be measured because every op failed (``correct`` is false).
        value = float(outcome.metrics.get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value if math.isfinite(value) else 0.0, "unit": spec["unit"]}
        print(f"{spec['name']:<44} {metrics[spec['name']]['value']:>16.6g} {spec['unit']}")
    unknown = sorted(set(outcome.metrics) - set(metrics))
    if unknown:
        print(f"perf/run.py: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 2
    for key, value in sorted(outcome.notes.items()):
        print(f"note {key} {value}")
    print(f"ops_attempted {outcome.attempted}  ops_failed {outcome.failed}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One workload in a fresh process; its result line plus its notes."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace)
    result["notes"] = dict(
        line.split(" ", 2)[1:] for line in lines if line.startswith("note ")
    )
    return result


def run_all(args, benchmark: dict) -> int:
    """Every workload, ``--runs`` seeds each, plus one traced run each."""
    seconds = args.seconds or benchmark["run_seconds"]
    runs = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for offset in range(args.runs):
            result = run_child(workload, args.seed + offset, seconds, 0)
            runs.append(result)
            shown = "  ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={result['seed']} failed={result['failed']}/{result['attempted']}  {shown}")
        traced = run_child(workload, args.seed, seconds, 1)
        runs.append(traced)
        plain = next(r for r in runs if r["workload"] == workload and not r["trace"])
        same = traced["notes"].get("history_sha256") == plain["notes"].get("history_sha256") and (
            traced["notes"].get("payload_sha256") == plain["notes"].get("payload_sha256")
        )
        print(f"{workload} traced: failed={traced['failed']}/{traced['attempted']}  "
              f"digests equal to untraced run of seed {args.seed}: {same}")
        for name, entry in traced["metrics"].items():
            print(f"    {name:<44} {entry['value']:>14.6g} {entry['unit']}")
        if not same:
            traced["failed"] += 1
            traced["correct"] = False
    results = {"seconds": seconds, "runs": runs}

    print(f"\n{'workload':<15} {'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}  unit (n={args.runs})")
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    for (workload, metric), values in end_to_end_values(results).items():
        print(f"{workload:<15} {metric:<20} {statistics.median(values):>12.6g} "
              f"{spread(values):>8.2%} {bounds[metric]['bound']:>6.0%}  {bounds[metric]['unit']}")
    failed = sum(run["failed"] for run in runs)
    print(f"ops_failed {failed} of {sum(run['attempted'] for run in runs)}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 1 if failed else 0


def run_compare(args, benchmark: dict) -> int:
    if len(args.files) != 2:
        print("usage: perf/run.py compare BASE.json CANDIDATE.json", file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.files)
    lines, regressed = compare(benchmark, base, candidate)
    print("\n".join(lines))
    return 1 if regressed else 0


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("command", nargs="?", default="run", choices=["run", "all", "compare"])
    parser.add_argument("files", nargs="*", help="compare: BASE.json CANDIDATE.json")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full",
                        help="smoke: tiny models and fleets, for the smoke test only")
    parser.add_argument("--runs", type=int, default=1, help="all: untraced runs per workload")
    parser.add_argument("--out", help="all: write every run to this JSON file")
    args = parser.parse_args(argv)
    if args.command == "all":
        return run_all(args, benchmark)
    if args.command == "compare":
        return run_compare(args, benchmark)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    return run_one(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
