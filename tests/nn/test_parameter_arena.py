"""The parameter arena: a model's values and gradients in one array each.

The arena changes where parameters live, never what they hold: the fused SGD
step is held bit-for-bit to the per-parameter reference step, and the
layout is rebuilt whenever the tree changes.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from _reference.optim import ReferenceSGD
from repro.nn import (
    SGD,
    BatchNorm2d,
    Conv2d,
    CrossEntropyLoss,
    Flatten,
    Linear,
    Module,
    ReLU,
    Sequential,
)


def _net(seed: int = 0) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        Flatten(),
        Linear(4 * 4 * 4, 5, rng=rng),
        Linear(5, 3, rng=rng),
    )


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)


def _train_once(model: Module, seed: int) -> None:
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    loss = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    optimizer.zero_grad()
    loss(model(inputs), np.array([0, 2]))
    model.backward(loss.backward())
    optimizer.step()


@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
@pytest.mark.parametrize("partial_step", [0, 1], ids=["partial-first", "partial-second"])
def test_fused_step_matches_the_per_parameter_reference_bit_for_bit(
    momentum, weight_decay, partial_step, monkeypatch
):
    model, twin = _net(), _net()
    settings = dict(lr=0.05, momentum=momentum, weight_decay=weight_decay)
    optimizer = SGD(model.parameters(), **settings)
    reference = ReferenceSGD(twin.parameters(), **settings)
    updates = []
    update = SGD._update

    def counted(self, *args):
        updates.append(1)
        update(self, *args)

    monkeypatch.setattr(SGD, "_update", counted)
    parameters = list(model.parameters())
    rng = np.random.default_rng(7)
    for step in range(3):
        # One step leaves the last parameter without a gradient, so the
        # per-parameter path runs on the arena's velocity: before any fused
        # step, or between two.  Exact zeros (of both signs) ride along.
        skipped = len(parameters) - 1 if step == partial_step else None
        for index, (mine, theirs) in enumerate(zip(parameters, twin.parameters(), strict=True)):
            mine.zero_grad()
            theirs.zero_grad()
            if index != skipped:
                gradient = rng.normal(scale=3.0, size=mine.shape).astype(np.float32)
                gradient.ravel()[:2] = [0.0, -0.0]
                mine.accumulate_grad(gradient)
                theirs.accumulate_grad(gradient)
        updates.clear()
        optimizer.step()
        reference.step()
        assert len(updates) == (len(parameters) - 1 if step == partial_step else 1)
        for mine, theirs in zip(parameters, twin.parameters(), strict=True):
            np.testing.assert_array_equal(_bits(mine.data), _bits(theirs.data))
    for index, (start, stop) in enumerate(optimizer._bounds):
        if momentum:
            np.testing.assert_array_equal(
                _bits(optimizer._velocity[start:stop]), _bits(reference._velocity[index].ravel())
            )
        else:
            assert optimizer._velocity is None and not reference._velocity


def test_appended_layer_joins_parameters_state_dict_and_the_step():
    model = _net()
    model.state_dict()
    model.append(Linear(3, 2, rng=np.random.default_rng(1)))
    names = [name for name, _ in model.named_parameters()]
    assert names[-2:] == ["6.weight", "6.bias"]
    assert {"6.weight", "6.bias"} <= set(model.state_dict())
    head = model[6]
    assert head.weight.arena is next(model.parameters()).arena
    optimizer = SGD(model.parameters(), lr=0.5)
    for parameter in model.parameters():
        parameter.accumulate_grad(np.ones(parameter.shape, dtype=np.float32))
    before = head.weight.data.copy()
    optimizer.step()
    np.testing.assert_array_equal(head.weight.data, before - np.float32(0.5))
    np.testing.assert_array_equal(model.state_dict()["6.weight"], head.weight.data)


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda model: pickle.loads(pickle.dumps(model))],
    ids=["deepcopy", "pickle"],
)
def test_copies_are_standalone_models_with_equal_state(clone):
    source = _net()
    _train_once(source, seed=1)
    replica = clone(source)
    expected = source.state_dict()
    state = replica.state_dict()
    assert list(state) == list(expected)
    for name, value in expected.items():
        np.testing.assert_array_equal(state[name], value)
    _train_once(replica, seed=2)
    for name, value in source.state_dict().items():
        np.testing.assert_array_equal(value, expected[name])
    assert not np.array_equal(replica.state_dict()["4.weight"], expected["4.weight"])


def test_two_live_optimizers_never_share_velocity():
    model, twin = _net(), _net()
    first = SGD(model.parameters(), lr=0.1, momentum=0.9)
    second = SGD(model.parameters(), lr=0.1, momentum=0.9)
    references = [ReferenceSGD(twin.parameters(), lr=0.1, momentum=0.9) for _ in range(2)]
    for optimizer, reference in [(first, references[0]), (second, references[1])] * 2:
        for mine, theirs in zip(model.parameters(), twin.parameters(), strict=True):
            mine.zero_grad()
            theirs.zero_grad()
            mine.accumulate_grad(np.ones(mine.shape, dtype=np.float32))
            theirs.accumulate_grad(np.ones(theirs.shape, dtype=np.float32))
        optimizer.step()
        reference.step()
    assert not np.shares_memory(first._velocity, second._velocity)
    for mine, theirs in zip(model.parameters(), twin.parameters(), strict=True):
        np.testing.assert_array_equal(_bits(mine.data), _bits(theirs.data))


def test_a_dropped_optimizers_velocity_is_reused_zeroed():
    model = _net()
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    for parameter in model.parameters():
        parameter.accumulate_grad(np.ones(parameter.shape, dtype=np.float32))
    optimizer.step()
    lent = optimizer._velocity
    del optimizer
    successor = SGD(model.parameters(), lr=0.1, momentum=0.9)
    successor.step()
    assert successor._velocity is lent
    np.testing.assert_array_equal(lent, np.ones_like(lent))


def test_state_dict_entries_are_independent_copies():
    model = _net()
    state = model.state_dict()
    live = {name: value.copy() for name, value in model.state_dict().items()}
    state["4.weight"][...] = 123.0
    state["1.running_mean"][...] = 7.0
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(value, live[name])
    for name, value in state.items():
        if name not in ("4.weight", "1.running_mean"):
            np.testing.assert_array_equal(value, live[name])


def test_a_parameter_under_two_names_gets_two_independent_entries():
    model = _net()
    model.tied = model[5].weight  # one Parameter, registered twice
    state = model.state_dict()
    np.testing.assert_array_equal(state["tied"], state["5.weight"])
    assert not np.shares_memory(state["tied"], state["5.weight"])


def test_rebinding_data_and_using_a_submodule_as_root_keep_the_model_exact():
    model = _net()
    model.state_dict()
    model[4].weight.data = np.full(model[4].weight.shape, 2.0)
    assert np.all(model.state_dict()["4.weight"] == 2.0)
    inner = model[4]
    np.testing.assert_array_equal(inner.state_dict()["weight"], model[4].weight.data)
    inner.weight.data[...] = 3.0
    assert np.all(model.state_dict()["4.weight"] == 3.0)
    model.load_state_dict({**model.state_dict(), "4.bias": np.zeros(5, dtype=np.float32)})
    assert np.all(inner.state_dict()["bias"] == 0.0)
