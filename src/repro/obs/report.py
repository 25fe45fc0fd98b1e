"""Deterministic post-run error-analysis reports.

:func:`build_error_analysis` turns a :class:`~repro.fl.history.TrainingHistory`
into a markdown report that answers the question a failed run actually
raises: *where* did it go wrong?  It ranks the rounds and tensors where the
error bound was nearly violated, detects adaptive-controller thrash in the
per-round bound trajectory, ranks the worst clients/links by drops, deadline
cuts and turnaround, and reconstructs the fault timeline from the delivery
flags.

Determinism is a hard requirement — CI diffs these reports across runs, and
the test suite pins them byte-for-byte.  Hence: no wall-clock timestamps, no
dict-order dependence (every ranking has an explicit sort key with the
round/tensor/client id as the final tiebreak), and all floats go through one
fixed ``%.4g``-style formatter.
"""

from __future__ import annotations

import math
from typing import Dict, List

#: Bound-utilization level at which a round/tensor is flagged.  1.0 means the
#: reconstruction error touched the bound exactly.
NEAR_VIOLATION_THRESHOLD = 0.9

#: Direction flips in the error-bound trajectory (per adjustment) above which
#: the adaptive controller is reported as thrashing.
THRASH_FLIP_FRACTION = 0.5


def _fmt(value: float) -> str:
    """One fixed float format for every number in the report."""
    if value != value:  # NaN
        return "nan"
    if value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    return f"{value:.4g}"


def _utilization_flag(value: float) -> str:
    if value > 1.0:
        return " **VIOLATED**"
    if value >= NEAR_VIOLATION_THRESHOLD:
        return " **NEAR-VIOLATION**"
    return ""


def _run_summary(history) -> List[str]:
    lines = ["## Run summary", ""]
    if not len(history):
        lines.append("No rounds recorded — the run produced an empty history.")
        lines.append("")
        return lines
    records = history.records
    lines.extend(
        [
            f"- rounds: {len(records)}",
            f"- final accuracy: {_fmt(history.final_accuracy)}"
            f" (best {_fmt(history.best_accuracy)})",
            f"- total uplink: {_fmt(history.total_uplink_bytes / 1e6)} MB"
            f" over {_fmt(history.total_uplink_seconds)} simulated s",
            f"- dropped updates: {history.total_dropped_clients}"
            f", deadline-cut stragglers: {history.total_straggler_clients}",
            f"- mean compression ratio: "
            f"{_fmt(sum(r.mean_compression_ratio for r in records) / len(records))}x",
        ]
    )
    bounds = [r.error_bound for r in records if r.error_bound > 0.0]
    if bounds:
        mode = next((r.error_bound_mode for r in records if r.error_bound_mode), "")
        lines.append(
            f"- error bound ({mode or 'unknown mode'}): "
            f"{_fmt(min(bounds))} .. {_fmt(max(bounds))}"
        )
    else:
        lines.append("- error bound: none recorded (uncompressed or legacy history)")
    lines.append("")
    return lines


def _bound_pressure(history, top: int = 10) -> List[str]:
    lines = ["## Error-bound pressure", ""]
    tracked = [r for r in history.records if r.tensor_bound_utilization]
    if not tracked:
        lines.append(
            "No bound-utilization data recorded (run was uncompressed, or the "
            "history predates utilization tracking)."
        )
        lines.append("")
        return lines
    ranked = sorted(
        tracked, key=lambda r: (-r.max_bound_utilization, r.round_index)
    )[:top]
    lines.append("Rounds ranked by worst-tensor bound utilization"
                 " (`max_abs_error / resolved_bound`):")
    lines.append("")
    lines.append("| round | utilization | worst tensor | error bound |")
    lines.append("| --- | --- | --- | --- |")
    for record in ranked:
        worst_tensor = min(
            record.tensor_bound_utilization,
            key=lambda name, utilization=record.tensor_bound_utilization: (-utilization[name], name),
        )
        lines.append(
            f"| {record.round_index} "
            f"| {_fmt(record.max_bound_utilization)}"
            f"{_utilization_flag(record.max_bound_utilization)} "
            f"| `{worst_tensor}` "
            f"| {_fmt(record.error_bound)} |"
        )
    lines.append("")

    # Per-tensor worst case across the whole run.
    tensor_worst: Dict[str, float] = {}
    tensor_round: Dict[str, int] = {}
    for record in tracked:
        for name, value in record.tensor_bound_utilization.items():
            if name not in tensor_worst or value > tensor_worst[name]:
                tensor_worst[name] = value
                tensor_round[name] = record.round_index
    ranked_tensors = sorted(tensor_worst, key=lambda n: (-tensor_worst[n], n))[:top]
    lines.append("Tensors ranked by worst utilization over the run:")
    lines.append("")
    lines.append("| tensor | worst utilization | at round |")
    lines.append("| --- | --- | --- |")
    for name in ranked_tensors:
        lines.append(
            f"| `{name}` | {_fmt(tensor_worst[name])}"
            f"{_utilization_flag(tensor_worst[name])} | {tensor_round[name]} |"
        )
    lines.append("")
    return lines


def _controller_stability(history) -> List[str]:
    lines = ["## Adaptive-controller stability", ""]
    trajectory = [r.error_bound for r in history.records if r.error_bound > 0.0]
    if len(trajectory) < 3:
        lines.append("Not enough bound data to assess the controller"
                     f" ({len(trajectory)} round(s) with a recorded bound).")
        lines.append("")
        return lines
    moves = [b - a for a, b in zip(trajectory, trajectory[1:], strict=False) if b != a]
    if not moves:
        lines.append(
            f"Bound held constant at {_fmt(trajectory[0])} for all "
            f"{len(trajectory)} rounds — static codec or a converged controller."
        )
        lines.append("")
        return lines
    flips = sum(
        1 for a, b in zip(moves, moves[1:], strict=False)
        if math.copysign(1.0, a) != math.copysign(1.0, b)
    )
    flip_fraction = flips / len(moves)
    lines.extend(
        [
            f"- bound adjustments: {len(moves)} over {len(trajectory)} rounds",
            f"- direction flips: {flips} ({_fmt(100 * flip_fraction)}% of adjustments)",
            f"- trajectory: {_fmt(trajectory[0])} -> {_fmt(trajectory[-1])}"
            f" (min {_fmt(min(trajectory))}, max {_fmt(max(trajectory))})",
        ]
    )
    if flip_fraction >= THRASH_FLIP_FRACTION and flips >= 2:
        lines.append(
            "- verdict: **THRASHING** — the controller reverses direction on "
            f"{_fmt(100 * flip_fraction)}% of its adjustments; consider widening "
            "its accuracy dead-band or lowering its adjustment rate."
        )
    else:
        lines.append("- verdict: stable (mostly monotonic adjustment).")
    lines.append("")
    return lines


def _worst_clients(history, top: int = 5) -> List[str]:
    lines = ["## Worst clients / links", ""]
    aggregates: Dict[int, Dict[str, float]] = {}
    for record in history.records:
        for stat in record.client_stats:
            agg = aggregates.setdefault(
                stat.client_id,
                {"rounds": 0, "dropped": 0, "stragglers": 0,
                 "turnaround": 0.0, "max_turnaround": 0.0, "bound_utilization": 0.0},
            )
            agg["rounds"] += 1
            agg["dropped"] += 0 if stat.delivered else 1
            agg["stragglers"] += 1 if (stat.delivered and not stat.aggregated) else 0
            agg["turnaround"] += stat.turnaround_seconds
            agg["max_turnaround"] = max(agg["max_turnaround"], stat.turnaround_seconds)
            agg["bound_utilization"] = max(agg["bound_utilization"], stat.bound_utilization)
    if not aggregates:
        lines.append("No per-client stats recorded (legacy history).")
        lines.append("")
        return lines
    ranked = sorted(
        aggregates,
        key=lambda cid: (
            -aggregates[cid]["dropped"],
            -aggregates[cid]["stragglers"],
            -aggregates[cid]["max_turnaround"],
            cid,
        ),
    )[:top]
    lines.append("Ranked by (drops, deadline cuts, worst turnaround):")
    lines.append("")
    lines.append("| client | rounds | drops | deadline cuts "
                 "| mean turnaround (s) | max turnaround (s) | worst bound use |")
    lines.append("| --- | --- | --- | --- | --- | --- | --- |")
    for cid in ranked:
        agg = aggregates[cid]
        mean_turnaround = agg["turnaround"] / max(1, agg["rounds"])
        lines.append(
            f"| {cid} | {int(agg['rounds'])} | {int(agg['dropped'])} "
            f"| {int(agg['stragglers'])} | {_fmt(mean_turnaround)} "
            f"| {_fmt(agg['max_turnaround'])} | {_fmt(agg['bound_utilization'])} |"
        )
    lines.append("")
    return lines


def _fault_timeline(history) -> List[str]:
    lines = ["## Fault timeline", ""]
    events: List[str] = []
    for record in history.records:
        for stat in sorted(record.client_stats, key=lambda s: s.client_id):
            if stat.delivered:
                continue
            # A transit loss carries the payload it paid to ship before the
            # link dropped it; a client that never produced an update has
            # nothing on the wire.
            kind = "transit loss" if stat.payload_nbytes > 0 else "client failure"
            events.append(
                f"- round {record.round_index}: client {stat.client_id} — {kind}"
                f" ({_fmt(stat.payload_nbytes / 1e6)} MB undelivered)"
            )
        if record.straggler_clients:
            cut = sorted(
                s.client_id for s in record.client_stats if s.delivered and not s.aggregated
            )
            events.append(
                f"- round {record.round_index}: deadline cut "
                f"{record.straggler_clients} straggler(s)"
                + (f" (clients {', '.join(str(c) for c in cut)})" if cut else "")
            )
    if not events:
        lines.append("No drops, failures or deadline cuts recorded.")
    else:
        lines.extend(events)
    lines.append("")
    return lines


def build_error_analysis(history=None, title: str = "Run error-analysis report") -> str:
    """Render the full markdown report.

    ``history`` is a :class:`~repro.fl.history.TrainingHistory` (None renders
    the empty report).  Output is a pure function of it.
    """
    lines: List[str] = [f"# {title}", ""]
    if history is not None:
        lines.extend(_run_summary(history))
        lines.extend(_bound_pressure(history))
        lines.extend(_controller_stability(history))
        lines.extend(_worst_clients(history))
        lines.extend(_fault_timeline(history))
    if len(lines) == 2:
        lines.extend(["No inputs provided — nothing to analyse.", ""])
    return "\n".join(lines).rstrip() + "\n"


__all__ = [
    "build_error_analysis",
    "NEAR_VIOLATION_THRESHOLD",
    "THRASH_FLIP_FRACTION",
]
