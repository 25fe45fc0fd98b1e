"""Tests for the Problem 1 / Problem 2 selection procedures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ErrorBoundCandidate,
    select_error_bound,
    select_lossy_compressor,
)


@pytest.fixture
def weights(rng):
    values = rng.normal(0, 0.02, 60_000).astype(np.float32)
    values[rng.choice(values.size, 50, replace=False)] = rng.uniform(-0.8, 0.8, 50).astype(np.float32)
    return values


# ----------------------------------------------------------------------
# Problem 1 — compressor selection
# ----------------------------------------------------------------------
def test_selection_prefers_prediction_based_compressor_on_weights(weights):
    """On spiky model weights the ratio-oriented objective should land on one
    of the SZ-family prediction compressors, as the paper concludes."""
    selection = select_lossy_compressor(weights, error_bound=1e-2, bandwidth_mbps=10.0)
    assert selection.best.compressor in {"sz2", "sz3"}
    assert len(selection.candidates) == 4
    assert all(candidate.ratio > 0 for candidate in selection.candidates)


def test_selection_marks_infeasible_candidates_on_fast_links(weights):
    """At datacenter bandwidth, the transfer budget is tiny, so slow
    compressors become infeasible under Eqn. 2's constraint."""
    selection = select_lossy_compressor(weights, error_bound=1e-2, bandwidth_mbps=100_000.0)
    assert any(not candidate.feasible for candidate in selection.candidates)


def test_selection_with_runtime_heavy_objective_prefers_fast_codec(weights):
    selection = select_lossy_compressor(
        weights,
        error_bound=1e-2,
        ratio_weight=0.0,
        runtime_weight=1.0,
    )
    runtimes = {c.compressor: c.compress_seconds for c in selection.candidates}
    assert selection.best.compress_seconds == min(runtimes.values())


def test_selection_respects_candidate_subset(weights):
    selection = select_lossy_compressor(weights, candidates=("zfp", "szx"), error_bound=1e-2)
    assert selection.best.compressor in {"zfp", "szx"}


def test_candidate_score_property():
    from repro.core.selection import CompressorCandidate

    candidate = CompressorCandidate("sz2", 1e-2, ratio=10.0, compress_seconds=2.0, feasible=True)
    assert candidate.score == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Problem 2 — error-bound selection
# ----------------------------------------------------------------------
def _paper_like_candidates():
    """Accuracy/size behaviour shaped like Figure 5 + Table V for AlexNet."""
    return [
        ErrorBoundCandidate(1e-5, accuracy=0.578, communication_nbytes=int(230e6 / 2.9)),
        ErrorBoundCandidate(1e-4, accuracy=0.579, communication_nbytes=int(230e6 / 3.52)),
        ErrorBoundCandidate(1e-3, accuracy=0.577, communication_nbytes=int(230e6 / 5.54)),
        ErrorBoundCandidate(1e-2, accuracy=0.576, communication_nbytes=int(230e6 / 12.61)),
        ErrorBoundCandidate(1e-1, accuracy=0.10, communication_nbytes=int(230e6 / 54.54)),
    ]


def test_error_bound_selection_reproduces_paper_recommendation():
    selection = select_error_bound(_paper_like_candidates(), baseline_accuracy=0.579, tolerance=0.005)
    assert selection.best.error_bound == pytest.approx(1e-2)


def test_error_bound_selection_falls_back_to_closest_accuracy():
    candidates = [
        ErrorBoundCandidate(1e-2, accuracy=0.30, communication_nbytes=100),
        ErrorBoundCandidate(1e-3, accuracy=0.45, communication_nbytes=200),
    ]
    selection = select_error_bound(candidates, baseline_accuracy=0.60, tolerance=0.005)
    assert selection.best.error_bound == pytest.approx(1e-3)


def test_error_bound_selection_requires_candidates():
    with pytest.raises(ValueError):
        select_error_bound([], baseline_accuracy=0.5)
