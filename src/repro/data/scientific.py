"""Synthetic scientific-simulation fields (Miranda stand-in).

Figure 2 of the paper contrasts spiky FL model parameters with smooth
snippets of the Miranda large-eddy-simulation dataset (density and velocity
slices).  SDRBench data cannot be downloaded offline, so this module
synthesises smooth 1-D fields with the same qualitative character:
large-scale coherent structure, small local variation, high EBLC
compressibility.
"""

from __future__ import annotations

import numpy as np


def miranda_like_slice(
    length: int = 384,
    field: str = "density",
    seed: int = 0,
) -> np.ndarray:
    """A smooth 1-D slice resembling a Miranda density/velocity profile."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, length)
    if field == "density":
        # Two fluids with a smoothed interface plus mild large-scale waves.
        interface = 0.5 + 0.08 * np.sin(2 * np.pi * 3 * x + rng.uniform(0, 2 * np.pi))
        base = 1.0 + 2.0 / (1.0 + np.exp(-(x - interface) * 40.0))
        ripple = 0.15 * np.sin(2 * np.pi * 11 * x + rng.uniform(0, 2 * np.pi))
    elif field == "velocity":
        base = 1.5 * np.sin(2 * np.pi * 2 * x + rng.uniform(0, 2 * np.pi))
        ripple = 0.4 * np.sin(2 * np.pi * 7 * x + rng.uniform(0, 2 * np.pi))
    else:
        raise ValueError(f"unknown field {field!r}; expected 'density' or 'velocity'")
    noise = 0.01 * rng.normal(size=length)
    return (base + ripple + noise).astype(np.float32)


def smoothness_score(values: np.ndarray) -> float:
    """Mean absolute first difference normalised by the value range.

    Low values indicate smooth (scientific-simulation-like) data; high values
    indicate spiky (model-parameter-like) data.  Used by the Figure 2
    characterisation harness to quantify the visual contrast the paper draws.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size < 2:
        return 0.0
    value_range = float(values.max() - values.min())
    if value_range == 0.0:
        return 0.0
    return float(np.mean(np.abs(np.diff(values))) / value_range)
