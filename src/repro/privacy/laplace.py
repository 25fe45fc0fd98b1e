"""Laplace-distribution fitting of compression errors.

Section VII-D of the paper observes that the element-wise error introduced by
FedSZ's lossy stage is sharply peaked at zero with near-exponential tails —
visually close to a Laplace distribution, the noise family used by the
classic Laplace mechanism for differential privacy.  This module provides the
fitting and goodness-of-fit tooling behind that observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

_normal_cdf = np.frompyfunc(lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))), 1, 1)


@dataclass(frozen=True)
class LaplaceFit:
    """Maximum-likelihood Laplace fit plus goodness-of-fit diagnostics."""

    location: float
    scale: float
    ks_statistic: float
    ks_statistic_normal: float
    sample_size: int

    @property
    def closer_to_laplace_than_normal(self) -> bool:
        """True when the Laplace fit beats the best Gaussian fit (lower KS)."""
        return self.ks_statistic <= self.ks_statistic_normal

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for tabulation."""
        return {
            "location": self.location,
            "scale": self.scale,
            "ks_laplace": self.ks_statistic,
            "ks_normal": self.ks_statistic_normal,
            "samples": self.sample_size,
        }


def fit_laplace(errors: np.ndarray) -> LaplaceFit:
    """Fit a Laplace distribution to an error sample (MLE).

    The maximum-likelihood estimates are the median (location) and the mean
    absolute deviation from the median (scale).  Kolmogorov–Smirnov statistics
    against both the fitted Laplace and the fitted normal distribution are
    returned so callers can compare the two hypotheses, as the paper does
    qualitatively with its histograms.
    """
    errors = np.asarray(errors, dtype=np.float64).ravel()
    if errors.size < 8:
        raise ValueError(f"need at least 8 samples to fit a distribution, got {errors.size}")
    location = float(np.median(errors))
    scale = float(np.mean(np.abs(errors - location)))
    scale = max(scale, np.finfo(np.float64).tiny)

    # The Laplace CDF in closed form: 1 - e^-z / 2 above the location, e^z / 2 below.
    ordered = np.sort(errors)
    standard = (ordered - location) / scale
    tail = 0.5 * np.exp(-np.abs(standard))
    ks_laplace = _ks_statistic(np.where(standard > 0, 1.0 - tail, tail))
    normal_mean = float(np.mean(errors))
    normal_std = float(np.std(errors)) or np.finfo(np.float64).tiny
    standard = (ordered - normal_mean) / normal_std
    ks_normal = _ks_statistic(_normal_cdf(standard).astype(np.float64))
    return LaplaceFit(
        location=location,
        scale=scale,
        ks_statistic=ks_laplace,
        ks_statistic_normal=ks_normal,
        sample_size=int(errors.size),
    )


def _ks_statistic(cdf_values: np.ndarray) -> float:
    """One-sample two-sided Kolmogorov–Smirnov statistic.

    ``cdf_values`` is the hypothesised CDF at the sorted sample: the statistic
    is the largest gap between it and the empirical CDF on either side of a
    step (``tests/privacy`` pins it against a reference implementation).
    """
    count = cdf_values.size
    above = np.arange(1, count + 1) / count - cdf_values
    below = cdf_values - np.arange(count) / count
    return float(max(above.max(), below.max()))


def error_histogram(errors: np.ndarray, bins: int = 61) -> Dict[str, np.ndarray]:
    """Density histogram of the error sample (the panels of Figure 10)."""
    errors = np.asarray(errors, dtype=np.float64).ravel()
    density, edges = np.histogram(errors, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return {"centers": centers, "density": density, "edges": edges}
