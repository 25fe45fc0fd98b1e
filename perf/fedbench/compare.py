"""Compare two result files of ``run.py all`` under the benchmark's bounds.

For every pairing of workload and end-to-end metric the verdict is one of

* ``regressed``  — the candidate's median is worse than the base's by more
  than the metric's bound;
* ``improved``   — it is better by more than the bound (and, where either
  side's spread exceeds the bound, every candidate run beats every base run);
* ``unresolved`` — neither, but a side's run-to-run spread (interquartile
  distance over median) exceeds the bound, so "unchanged" cannot be claimed;
* ``ok``         — within the bound, with spreads that can resolve it.

Every ratio is printed with its base.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def end_to_end_values(results: dict) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the untraced runs of a result file."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in results["runs"]:
        if run["trace"]:
            continue
        for metric, entry in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(entry["value"])
    return values


def failed_share(results: dict) -> float:
    attempted = sum(run["attempted"] for run in results["runs"])
    return sum(run["failed"] for run in results["runs"]) / max(attempted, 1)


def verdict(base: List[float], candidate: List[float], better: str, bound: float):
    """``(verdict, worsening)``: worsening is the share of the base's median
    by which the candidate's median is worse (negative = better)."""
    base_median = statistics.median(base)
    candidate_median = statistics.median(candidate)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (candidate_median - base_median) / abs(base_median) if base_median else 0.0
    noisy = max(spread(base), spread(candidate)) > bound
    if better == "lower":
        all_better = max(candidate) < min(base)
    else:
        all_better = min(candidate) > max(base)
    if worsening > bound:
        return "regressed", worsening
    if worsening < -bound and (all_better or not noisy):
        return "improved", worsening
    if noisy and not all_better:
        return "unresolved", worsening
    return "ok", worsening


def compare(benchmark: dict, base: dict, candidate: dict) -> Tuple[List[str], bool]:
    """Report lines, and whether the candidate regressed anywhere."""
    specs = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    base_values = end_to_end_values(base)
    candidate_values = end_to_end_values(candidate)
    lines = [
        f"{'workload':<15} {'metric':<20} {'verdict':<10} "
        f"{'base median':>13} {'candidate':>13}  change (share of base) [spread base/cand]"
    ]
    regressed = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for name, spec in specs.items():
            a = base_values.get((workload, name))
            b = candidate_values.get((workload, name))
            if not a or not b:
                lines.append(f"{workload:<15} {name:<20} {'missing':<10}")
                regressed = True
                continue
            what, worsening = verdict(a, b, spec["better"], spec["bound"])
            regressed |= what == "regressed"
            direction = "worse" if worsening > 0 else "better"
            lines.append(
                f"{workload:<15} {name:<20} {what:<10} "
                f"{statistics.median(a):>13.6g} {statistics.median(b):>13.6g}  "
                f"{abs(worsening):.2%} {direction} than base {statistics.median(a):.6g} "
                f"{spec['unit']} (bound {spec['bound']:.0%}) "
                f"[{spread(a):.1%}/{spread(b):.1%}, n={len(a)}/{len(b)}]"
            )
    base_failed, candidate_failed = failed_share(base), failed_share(candidate)
    lines.append(
        f"failed ops: base {base_failed:.3%} of attempted, candidate {candidate_failed:.3%}"
    )
    if candidate_failed > base_failed:
        lines.append("candidate fails a higher share of ops than base")
        regressed = True
    return lines, regressed
