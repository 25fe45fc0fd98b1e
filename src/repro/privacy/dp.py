"""Differential-privacy perspective on compression noise.

The paper stops short of claiming a formal DP guarantee — it only notes that
the error distribution *resembles* Laplace noise and that compression-based
privacy amplification is an active research direction (Chen et al., 2024).
This module provides the quantitative scaffolding for that discussion:

* the classic Laplace mechanism (for comparison and for future hybrid
  schemes),
* an *equivalent-ε* estimate: the privacy parameter a genuine Laplace
  mechanism would need for its noise scale to match the observed compression
  error, given a query sensitivity,
* a helper that injects calibrated Laplace noise into a state dict, so the
  compression-as-noise hypothesis can be compared against genuine DP noise of
  the same magnitude in accuracy experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.privacy.laplace import LaplaceFit, fit_laplace


@dataclass(frozen=True)
class EquivalentPrivacyEstimate:
    """ε that a Laplace mechanism with the observed noise scale would provide."""

    noise_scale: float
    sensitivity: float
    epsilon: float

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for tabulation."""
        return {
            "noise_scale": self.noise_scale,
            "sensitivity": self.sensitivity,
            "epsilon": self.epsilon,
        }


def client_round_rng(seed: int, client_id: int, round_index: int) -> np.random.Generator:
    """The DP-noise substream for one ``(client, round)`` release.

    Derived through :class:`numpy.random.SeedSequence` so the streams are
    statistically independent across clients and rounds while remaining a pure
    function of ``(seed, client_id, round_index)``: replaying a round draws
    the same noise no matter how many other clients ran first or on which
    executor.  This is the substream DP releases should draw from — a single
    sequential generator shared across clients (as
    :class:`~repro.privacy.DPFedSZCompressor` still uses) consumes noise in
    call order, so a round's draws depend on which clients coded before.
    """
    sequence = np.random.SeedSequence([int(seed), int(client_id), int(round_index)])
    return np.random.default_rng(sequence)


def laplace_mechanism(
    values: np.ndarray,
    sensitivity: float,
    epsilon: float,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Add Laplace(Δ/ε) noise to ``values`` (the textbook mechanism).

    ``rng`` is required: a :class:`numpy.random.Generator` or an integer seed.
    The previous signature silently fell back to an *unseeded* generator,
    which made every DP run irreproducible — use :func:`client_round_rng` to
    derive the per-client, per-round substream a federated release should draw
    from.
    """
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if rng is None:
        raise ValueError(
            "laplace_mechanism requires an explicit rng or integer seed; DP noise "
            "must come from a seeded stream (see client_round_rng) so runs are "
            "reproducible"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    scale = sensitivity / epsilon
    values = np.asarray(values, dtype=np.float64)
    return values + rng.laplace(0.0, scale, size=values.shape)


def equivalent_epsilon(errors: np.ndarray, sensitivity: float) -> EquivalentPrivacyEstimate:
    """Estimate the ε whose Laplace mechanism matches the observed error scale.

    A Laplace mechanism with sensitivity Δ and privacy parameter ε adds noise
    of scale b = Δ/ε; inverting that with the fitted compression-error scale
    gives ε = Δ/b.  This is *not* a DP guarantee (compression error is data
    dependent), only the comparison the paper's discussion invites.
    """
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    fit: LaplaceFit = fit_laplace(errors)
    epsilon = sensitivity / fit.scale
    return EquivalentPrivacyEstimate(
        noise_scale=fit.scale, sensitivity=float(sensitivity), epsilon=float(epsilon)
    )


def perturb_state_dict_with_laplace(
    state_dict: Mapping[str, np.ndarray],
    noise_scale: float,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Add zero-centred Laplace noise of the given scale to every float tensor.

    Used by the DP-comparison experiments: models perturbed this way can be
    evaluated side by side with FedSZ-compressed models whose error scale
    matches ``noise_scale``.
    """
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be non-negative, got {noise_scale}")
    rng = np.random.default_rng(seed)
    perturbed: Dict[str, np.ndarray] = {}
    for name, tensor in state_dict.items():
        tensor = np.asarray(tensor)
        if noise_scale > 0 and np.issubdtype(tensor.dtype, np.floating):
            noise = rng.laplace(0.0, noise_scale, size=tensor.shape)
            perturbed[name] = (tensor.astype(np.float64) + noise).astype(tensor.dtype)
        else:
            perturbed[name] = tensor.copy()
    return perturbed
