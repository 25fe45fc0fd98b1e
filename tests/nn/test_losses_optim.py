"""Tests for the cross-entropy loss and the SGD optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, Linear, Parameter, SGD, Sequential, ReLU
from repro.nn import functional as F


def test_cross_entropy_matches_manual_computation():
    logits = np.array([[2.0, 1.0, 0.1]], dtype=np.float32)
    loss_fn = CrossEntropyLoss()
    loss = loss_fn(logits, np.array([0]))
    probabilities = F.softmax(logits.astype(np.float64))
    assert loss == pytest.approx(-np.log(probabilities[0, 0]), rel=1e-6)


def test_cross_entropy_gradient_matches_numerical(rng):
    logits = rng.normal(size=(4, 5)).astype(np.float64)
    targets = rng.integers(0, 5, size=4)
    _, grad = F.cross_entropy(logits, targets)
    epsilon = 1e-5
    numeric = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            plus = logits.copy()
            plus[i, j] += epsilon
            minus = logits.copy()
            minus[i, j] -= epsilon
            loss_plus, _ = F.cross_entropy(plus, targets)
            loss_minus, _ = F.cross_entropy(minus, targets)
            numeric[i, j] = (loss_plus - loss_minus) / (2 * epsilon)
    np.testing.assert_allclose(grad, numeric, rtol=1e-3, atol=1e-5)


def test_cross_entropy_backward_requires_forward():
    with pytest.raises(RuntimeError):
        CrossEntropyLoss().backward()


def test_perfect_prediction_has_near_zero_loss():
    logits = np.array([[100.0, 0.0], [0.0, 100.0]], dtype=np.float32)
    loss = CrossEntropyLoss()(logits, np.array([0, 1]))
    assert loss < 1e-6


def test_sgd_plain_update():
    parameter = Parameter(np.array([1.0, 2.0], dtype=np.float32))
    parameter.accumulate_grad(np.array([0.5, -0.5], dtype=np.float32))
    SGD([parameter], lr=0.1).step()
    np.testing.assert_allclose(parameter.data, [0.95, 2.05])


def test_sgd_weight_decay_shrinks_parameters():
    parameter = Parameter(np.array([10.0], dtype=np.float32))
    parameter.accumulate_grad(np.array([0.0], dtype=np.float32))
    SGD([parameter], lr=0.1, weight_decay=0.1).step()
    assert parameter.data[0] == pytest.approx(10.0 - 0.1 * 0.1 * 10.0)


def test_sgd_momentum_accumulates_velocity():
    parameter = Parameter(np.array([0.0], dtype=np.float32))
    optimizer = SGD([parameter], lr=1.0, momentum=0.9)
    for _ in range(2):
        parameter.grad = None
        parameter.accumulate_grad(np.array([1.0], dtype=np.float32))
        optimizer.step()
    # First step: -1; second step velocity = 0.9 * 1 + 1 = 1.9 -> total -2.9.
    assert parameter.data[0] == pytest.approx(-2.9)


def test_sgd_skips_parameters_without_grad():
    parameter = Parameter(np.array([3.0], dtype=np.float32))
    SGD([parameter], lr=0.1).step()
    assert parameter.data[0] == 3.0


def test_sgd_validation_errors():
    parameter = Parameter(np.zeros(1))
    with pytest.raises(ValueError):
        SGD([parameter], lr=0.0)
    with pytest.raises(ValueError):
        SGD([parameter], lr=0.1, momentum=-0.1)
    with pytest.raises(ValueError):
        SGD([], lr=0.1)
    optimizer = SGD([parameter], lr=0.1)
    with pytest.raises(ValueError):
        optimizer.set_lr(-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", ["lr", "momentum", "weight_decay", "set_lr"])
def test_sgd_rejects_non_finite_hyper_parameters(name, value):
    # NaN passed every `<= 0` / `< 0` check and then poisoned every weight.
    parameter = Parameter(np.zeros(1))
    with pytest.raises(ValueError, match="must be finite"):
        if name == "set_lr":
            SGD([parameter], lr=0.1).set_lr(value)
        else:
            SGD([parameter], **{"lr": 0.1, name: value})


def test_end_to_end_training_reduces_loss(rng):
    """A small MLP must be able to fit a linearly separable problem."""
    model = Sequential(Linear(2, 16, rng=rng), ReLU(), Linear(16, 2, rng=rng))
    optimizer = SGD(model.parameters(), lr=0.5, momentum=0.9)
    loss_fn = CrossEntropyLoss()
    inputs = rng.normal(size=(128, 2)).astype(np.float32)
    targets = (inputs[:, 0] + inputs[:, 1] > 0).astype(np.int64)

    first_loss = None
    for _step in range(60):
        optimizer.zero_grad()
        logits = model(inputs)
        loss = loss_fn(logits, targets)
        if first_loss is None:
            first_loss = loss
        model.backward(loss_fn.backward())
        optimizer.step()
    final_accuracy = F.accuracy(model(inputs), targets)
    assert loss < first_loss * 0.5
    assert final_accuracy > 0.9
