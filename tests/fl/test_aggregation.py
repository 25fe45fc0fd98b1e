"""Tests for FedAvg aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl import fedavg
from repro.nn.models import create_model


def test_fedavg_uniform_average():
    states = [
        {"w": np.array([1.0, 2.0], dtype=np.float32)},
        {"w": np.array([3.0, 4.0], dtype=np.float32)},
    ]
    result = fedavg(states)
    np.testing.assert_allclose(result["w"], [2.0, 3.0])


def test_fedavg_weighted_by_sample_counts():
    states = [
        {"w": np.array([0.0], dtype=np.float32)},
        {"w": np.array([10.0], dtype=np.float32)},
    ]
    result = fedavg(states, client_weights=[1, 3])
    np.testing.assert_allclose(result["w"], [7.5])


def test_fedavg_preserves_dtypes_and_rounds_integers():
    states = [
        {"count": np.array(3, dtype=np.int64), "w": np.ones(2, dtype=np.float32)},
        {"count": np.array(4, dtype=np.int64), "w": np.zeros(2, dtype=np.float32)},
    ]
    result = fedavg(states)
    assert result["count"].dtype == np.int64
    assert result["count"] == 4  # rint(3.5) rounds to even
    assert result["w"].dtype == np.float32


def test_fedavg_identity_for_single_client():
    state = create_model("mobilenetv2", "tiny", seed=0).state_dict()
    result = fedavg([state])
    for name in state:
        np.testing.assert_allclose(result[name], state[name], atol=1e-6)


def test_fedavg_validation_errors():
    with pytest.raises(ValueError):
        fedavg([])
    states = [{"w": np.zeros(2)}, {"w": np.zeros(2)}]
    with pytest.raises(ValueError):
        fedavg(states, client_weights=[1.0])
    with pytest.raises(ValueError):
        fedavg(states, client_weights=[0.0, 0.0])
    with pytest.raises(KeyError):
        fedavg([{"w": np.zeros(2)}, {"v": np.zeros(2)}])


def _stacked_fedavg(states, weights):
    """FedAvg as it was written before the one-pass conversion: a float64 copy
    of each client's tensor, then ``np.stack``, then the same ``tensordot``."""
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights / weights.sum()
    averaged = {}
    for key, reference in states[0].items():
        stacked = np.stack([np.asarray(s[key], dtype=np.float64) for s in states], axis=0)
        value = np.tensordot(weights, stacked, axes=1)
        if np.issubdtype(np.asarray(reference).dtype, np.integer):
            averaged[key] = np.rint(value).astype(np.asarray(reference).dtype)
        else:
            averaged[key] = value.astype(np.asarray(reference).dtype)
    return averaged


@pytest.mark.parametrize("model", ["mobilenetv2", "alexnet"])
def test_fedavg_is_bit_identical_to_stacking_float64_copies(model):
    """BatchNorm's 0-d ``num_batches_tracked`` included: rows are assigned, not iterated."""
    states = [create_model(model, "tiny", seed=seed).state_dict() for seed in range(5)]
    weights = [13, 7, 29, 1, 50]
    assert any(np.asarray(value).ndim == 0 for value in states[0].values()) == (
        model == "mobilenetv2"
    )
    expected = _stacked_fedavg(states, weights)
    for name, value in fedavg(states, client_weights=weights).items():
        assert value.dtype == expected[name].dtype and value.shape == expected[name].shape
        assert value.tobytes() == expected[name].tobytes(), name


def test_fedavg_rejects_a_tensor_of_another_shape():
    """Row assignment would broadcast a (1,) tensor into a (2,) row; np.stack refused it."""
    with pytest.raises(ValueError, match="shape"):
        fedavg([{"w": np.zeros(2)}, {"w": np.zeros(1)}])
    with pytest.raises(ValueError, match="shape"):
        fedavg([{"w": np.zeros((2, 3))}, {"w": np.zeros((3, 2))}])


def test_fedavg_of_model_states_loads_back():
    model = create_model("mobilenetv2", "tiny", seed=0)
    state_a = create_model("mobilenetv2", "tiny", seed=1).state_dict()
    state_b = create_model("mobilenetv2", "tiny", seed=2).state_dict()
    averaged = fedavg([state_a, state_b], client_weights=[10, 30])
    model.load_state_dict(averaged)  # shapes and dtypes must be compatible
    name = next(k for k in averaged if k.endswith("weight"))
    np.testing.assert_allclose(
        averaged[name], 0.25 * state_a[name] + 0.75 * state_b[name], atol=1e-6
    )


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=8
    ),
)
def test_fedavg_is_bounded_by_client_extremes(values):
    states = [{"w": np.array([v], dtype=np.float64)} for v in values]
    result = fedavg(states)
    assert min(values) - 1e-9 <= result["w"][0] <= max(values) + 1e-9
