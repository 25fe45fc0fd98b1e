"""Compressor and error-bound selection (Problems 1 and 2, Section IV).

Problem 1 (Eqn. 2) picks the lossy compressor that maximises compression
ratio and minimises runtime subject to the runtime staying below the
uncompressed transfer time on the target link.  Problem 2 (Eqn. 3) picks the
error bound that maximises communication savings while keeping inference
accuracy within a tolerance of the uncompressed baseline.

Both are implemented as explicit, deterministic searches over measured
candidates — the same procedure the paper follows empirically (Tables I and
V, Figure 5) — rather than black-box optimisers, so the selection is
reproducible and auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.compression.base import ErrorBoundMode
from repro.compression.metrics import LossyEvaluation, evaluate_lossy
from repro.compression.registry import get_lossy_compressor
from repro.network.bandwidth import LinkSpec


@dataclass(frozen=True)
class CompressorCandidate:
    """One (compressor, error bound) evaluation considered by Problem 1."""

    compressor: str
    error_bound: float
    ratio: float
    compress_seconds: float
    feasible: bool

    @property
    def score(self) -> float:
        """Scalarised objective: ratio per unit runtime (higher is better)."""
        if self.compress_seconds <= 0:
            return float("inf")
        return self.ratio / self.compress_seconds


@dataclass(frozen=True)
class CompressorSelection:
    """Outcome of Problem 1."""

    best: CompressorCandidate
    candidates: List[CompressorCandidate]


def select_lossy_compressor(
    sample: np.ndarray,
    candidates: Sequence[str] = ("sz2", "sz3", "szx", "zfp"),
    error_bound: float = 1e-2,
    mode: ErrorBoundMode = ErrorBoundMode.REL,
    bandwidth_mbps: float = 10.0,
    ratio_weight: float = 1.0,
    runtime_weight: float = 0.25,
    minimum_ratio: float = 1.0,
    timing_repeats: int = 3,
) -> CompressorSelection:
    """Solve Problem 1 empirically on a representative data sample.

    Every candidate is run on ``sample``; candidates whose runtime exceeds the
    uncompressed transfer time ``S / B_N`` or whose ratio falls below
    ``minimum_ratio`` are infeasible.  Among feasible candidates the one with
    the best weighted log-ratio / log-runtime trade-off wins, which mirrors
    the paper's conclusion that a moderately slower compressor is worth a
    clearly higher ratio.

    Runtimes enter the objective, so each candidate is timed
    ``timing_repeats`` times and the minimum is used — otherwise a single
    noisy measurement on a busy machine can crown a different winner from one
    call to the next.
    """
    sample = np.asarray(sample)
    transfer_budget = LinkSpec(bandwidth_mbps=bandwidth_mbps).transmission_seconds(sample.nbytes)

    evaluated: List[CompressorCandidate] = []
    for name in candidates:
        evaluation: LossyEvaluation = evaluate_lossy(
            get_lossy_compressor(name), sample, error_bound, mode,
            timing_repeats=timing_repeats,
        )
        feasible = (
            evaluation.compress_seconds < transfer_budget
            and evaluation.ratio >= minimum_ratio
        )
        evaluated.append(
            CompressorCandidate(
                compressor=name,
                error_bound=error_bound,
                ratio=evaluation.ratio,
                compress_seconds=evaluation.compress_seconds,
                feasible=feasible,
            )
        )

    feasible_candidates = [c for c in evaluated if c.feasible]
    pool = feasible_candidates or evaluated

    def objective(candidate: CompressorCandidate) -> float:
        runtime = max(candidate.compress_seconds, 1e-9)
        return ratio_weight * np.log(max(candidate.ratio, 1e-9)) - runtime_weight * np.log(runtime)

    best = max(pool, key=objective)
    return CompressorSelection(best=best, candidates=evaluated)


@dataclass(frozen=True)
class ErrorBoundCandidate:
    """One error-bound evaluation considered by Problem 2."""

    error_bound: float
    accuracy: float
    communication_nbytes: int


@dataclass(frozen=True)
class ErrorBoundSelection:
    """Outcome of Problem 2."""

    best: ErrorBoundCandidate
    baseline_accuracy: float
    tolerance: float
    candidates: List[ErrorBoundCandidate]


def select_error_bound(
    candidates: Sequence[ErrorBoundCandidate],
    baseline_accuracy: float,
    tolerance: float = 0.005,
) -> ErrorBoundSelection:
    """Solve Problem 2 given measured (bound, accuracy, bytes) triples.

    The selected bound is the one with the smallest communication cost among
    those whose accuracy stays within ``tolerance`` of the uncompressed
    baseline; if none qualifies, the bound with the smallest accuracy gap
    wins.  With the paper's measurements this procedure returns 1e-2.
    """
    if not candidates:
        raise ValueError("select_error_bound needs at least one candidate")
    ordered = sorted(candidates, key=lambda c: c.error_bound)
    within_tolerance = [
        c for c in ordered if baseline_accuracy - c.accuracy <= tolerance
    ]
    if within_tolerance:
        best = min(within_tolerance, key=lambda c: c.communication_nbytes)
    else:
        best = min(ordered, key=lambda c: abs(baseline_accuracy - c.accuracy))
    return ErrorBoundSelection(
        best=best,
        baseline_accuracy=baseline_accuracy,
        tolerance=tolerance,
        candidates=list(ordered),
    )
