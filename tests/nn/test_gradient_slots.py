"""Layer gradients land in the parameter arena with the bytes of a private copy.

A layer bound to an arena (its model's ``parameters()`` was asked for) keeps
its gradients in the arena's slots; a layer never asked for one keeps private
copies through ``Parameter.accumulate_grad``.  Both must hold the same bytes
after one backward, after two (accumulation), for a parameter registered under
two names, and for a layer whose arena went stale; a backward that raises
leaves no gradient behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Conv2d, Identity, Linear, Sequential
from repro.nn import functional as F
from repro.nn.parameter import invalidate_arenas


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float32).tobytes()


def _randomise(layer, seed: int) -> None:
    """Give a layer's parameters (BatchNorm's ones and zeros included) random values."""
    rng = np.random.default_rng(seed)
    for parameter in (layer.weight, layer.bias):
        if parameter is not None:
            parameter.data[...] = rng.normal(size=parameter.shape).astype(np.float32)


LAYERS = {
    "linear": (lambda: Linear(6, 5, rng=np.random.default_rng(1)), (6,)),
    "linear-no-bias": (lambda: Linear(6, 5, bias=False, rng=np.random.default_rng(1)), (6,)),
    "conv-dense": (lambda: Conv2d(3, 5, 3, padding=1, rng=np.random.default_rng(1)), (3, 6, 6)),
    "conv-1x1": (lambda: Conv2d(4, 6, 1, rng=np.random.default_rng(1)), (4, 5, 5)),
    "conv-strided-large": (
        lambda: Conv2d(2, 3, 3, stride=2, padding=1, bias=False, rng=np.random.default_rng(1)),
        (2, 10, 10),
    ),
    "conv-grouped": (
        lambda: Conv2d(4, 6, 3, padding=1, groups=2, rng=np.random.default_rng(1)),
        (4, 5, 5),
    ),
    "conv-depthwise": (
        lambda: Conv2d(4, 4, 3, padding=1, groups=4, rng=np.random.default_rng(1)),
        (4, 6, 6),
    ),
    "conv-depthwise-stride2": (
        lambda: Conv2d(4, 4, 3, stride=2, padding=1, groups=4, rng=np.random.default_rng(1)),
        (4, 7, 7),
    ),
    "batchnorm": (lambda: BatchNorm2d(3), (3, 4, 4)),
    "batchnorm-eval": (lambda: BatchNorm2d(3), (3, 4, 4)),
}


def _pair(name: str):
    """The same layer twice: one bound to an arena, one with private gradients."""
    make, _ = LAYERS[name]
    bound, free = make(), make()
    list(bound.parameters())  # builds the arena; ``free`` never gets one
    for layer in (bound, free):
        _randomise(layer, 3)
        layer.training = name != "batchnorm-eval"
    assert bound.weight.arena is not None and free.weight.arena is None
    return bound, free


def _run(layers, name: str, batch: int, seed: int, dtype=np.float32) -> list:
    """One forward and backward of each layer on the same input and output gradient."""
    _, shape = LAYERS[name]
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(batch, *shape)).astype(np.float32)
    grad_output = None
    grads = []
    for layer in layers:
        output = layer(inputs)
        if grad_output is None:
            grad_output = rng.normal(size=output.shape).astype(dtype)
        grads.append(layer.backward(grad_output))
    return grads


def _assert_same_gradients(bound, free) -> None:
    for ours, theirs in ((bound.weight, free.weight), (bound.bias, free.bias)):
        if ours is None:
            continue
        assert ours.grad is not None and theirs.grad is not None
        assert _bits(ours.grad) == _bits(theirs.grad)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("name", LAYERS)
def test_one_backward_writes_the_arena_slot_with_the_private_copys_bytes(name, batch):
    bound, free = _pair(name)
    grad_bound, grad_free = _run([bound, free], name, batch, seed=batch)
    _assert_same_gradients(bound, free)
    assert _bits(grad_bound) == _bits(grad_free)
    assert bound.weight.grad is bound.weight._grad_view  # the slot is the gradient
    assert np.shares_memory(bound.weight.grad, bound.weight.arena.grads)


@pytest.mark.parametrize("name", LAYERS)
def test_a_second_backward_accumulates_with_the_private_copys_bytes(name):
    bound, free = _pair(name)
    _run([bound, free], name, 2, seed=0)
    _run([bound, free], name, 1, seed=1)
    _assert_same_gradients(bound, free)
    assert bound.weight.grad is bound.weight._grad_view


@pytest.mark.parametrize("name", LAYERS)
def test_a_float64_output_gradient_keeps_the_private_copys_bytes(name):
    # Its parameter gradients are rounded to float32 once, at the end.
    bound, free = _pair(name)
    grad_bound, grad_free = _run([bound, free], name, 2, seed=9, dtype=np.float64)
    _assert_same_gradients(bound, free)
    assert grad_bound.tobytes() == grad_free.tobytes()
    assert bound.weight.grad is bound.weight._grad_view


@pytest.mark.parametrize("name", ["linear", "conv-dense", "conv-depthwise", "batchnorm"])
def test_a_layer_whose_arena_went_stale_keeps_the_private_copys_bytes(name):
    bound, free = _pair(name)
    stale = bound.weight.arena
    invalidate_arenas()
    assert not stale.current()
    _run([bound, free], name, 2, seed=4)
    _assert_same_gradients(bound, free)
    list(bound.parameters())  # the rebuilt arena carries the gradients over
    assert bound.weight.arena is not stale
    _assert_same_gradients(bound, free)
    assert np.shares_memory(bound.weight.grad, bound.weight.arena.grads)


def _tied(seed: int) -> Sequential:
    rng = np.random.default_rng(seed)
    model = Sequential(Linear(4, 4, rng=rng), Identity(), Linear(4, 4, rng=rng))
    model[2].weight = model[0].weight  # one Parameter, registered under two names
    return model


def test_a_parameter_registered_under_two_names_sums_both_gradients():
    bound, free = _tied(5), _tied(5)
    list(bound.parameters())
    assert free[0].weight.arena is None
    rng = np.random.default_rng(6)
    inputs = rng.normal(size=(3, 4)).astype(np.float32)
    grad_output = rng.normal(size=(3, 4)).astype(np.float32)
    for model in (bound, free):
        model(inputs)
        model.backward(grad_output)
    for ours, theirs in zip(bound.parameters(), free.parameters(), strict=True):
        assert _bits(ours.grad) == _bits(theirs.grad)
    shared = bound[0].weight
    assert shared.grad is shared._grad_view


def test_the_dense_weight_gradient_equals_tensordot_over_batch_and_positions():
    rng = np.random.default_rng(8)
    layer = Conv2d(3, 5, 3, padding=1, rng=rng)
    list(layer.parameters())
    inputs = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    grad_output = rng.normal(size=layer(inputs).shape).astype(np.float32)
    layer.backward(grad_output)
    columns, _, _ = F.im2col(inputs, 3, 1, 1)
    expected = np.tensordot(grad_output.reshape(2, 5, -1), columns, axes=((0, 2), (0, 2)))
    assert _bits(layer.weight.grad) == _bits(expected.reshape(layer.weight.shape))


@pytest.mark.parametrize("name", LAYERS)
def test_a_backward_that_raises_leaves_no_gradient(name):
    bound, _ = _pair(name)
    _, shape = LAYERS[name]
    output = bound(np.ones((2, *shape), np.float32))
    wrong = np.ones((output.shape[0] + 1, *output.shape[1:]), np.float32)
    with pytest.raises((ValueError, RuntimeError)):
        bound.backward(wrong)
    assert bound.weight.grad is None
    if bound.bias is not None:
        assert bound.bias.grad is None
    fresh, _ = _pair(name)
    with pytest.raises(RuntimeError):  # no forward ran
        fresh.backward(output)
    assert fresh.weight.grad is None
