"""Shared pytest fixtures for the FedSZ reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import inflate as _inflate
from repro.compression import registry as _compressor_registry
from repro.utils.seeding import set_global_seed


@pytest.fixture(autouse=True)
def _deterministic_seed():
    """Every test starts from the same global seed for reproducibility."""
    set_global_seed(1234)
    yield


@pytest.fixture(autouse=True)
def _isolated_compressor_registry():
    """Snapshot and restore the global compressor registries around each test.

    Tests exercising ``register_lossy`` / ``register_lossless`` would
    otherwise leak their custom factories into every later test in the run —
    exactly the kind of order-dependent state this suite must not have.
    """
    lossy = dict(_compressor_registry._LOSSY_FACTORIES)
    lossless = dict(_compressor_registry._LOSSLESS_FACTORIES)
    yield
    _compressor_registry._LOSSY_FACTORIES.clear()
    _compressor_registry._LOSSY_FACTORIES.update(lossy)
    _compressor_registry._LOSSLESS_FACTORIES.clear()
    _compressor_registry._LOSSLESS_FACTORIES.update(lossless)


@pytest.fixture(params=["libdeflate", "zlib"])
def inflate_backend(request, monkeypatch) -> str:
    """Run the test on each path of :mod:`repro.compression.inflate`: the
    system's libdeflate, and the zlib fallback a host without it takes."""
    if request.param == "zlib":
        monkeypatch.setattr(_inflate, "_libdeflate", None)
    elif _inflate.backend() != "libdeflate":
        pytest.skip("libdeflate.so.0 does not load on this host")
    return request.param


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for test data."""
    return np.random.default_rng(42)


@pytest.fixture
def spiky_weights(rng: np.random.Generator) -> np.ndarray:
    """Weight-like data: dense near zero with sparse large outliers.

    This mirrors the FL model-parameter distributions characterised in
    Figure 2/3 of the paper (spiky 1-D float data).
    """
    values = rng.normal(0.0, 0.02, 20_000).astype(np.float32)
    outlier_positions = rng.choice(values.size, 64, replace=False)
    values[outlier_positions] = rng.uniform(-0.9, 0.9, 64).astype(np.float32)
    return values


@pytest.fixture
def smooth_field(rng: np.random.Generator) -> np.ndarray:
    """Smooth scientific-simulation-like 1-D field (Miranda-style)."""
    x = np.linspace(0.0, 8.0 * np.pi, 20_000)
    signal = np.sin(x) + 0.3 * np.sin(3.1 * x) + 0.002 * rng.normal(0.0, 1.0, x.size)
    return signal.astype(np.float32)
