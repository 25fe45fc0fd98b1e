"""The nn kernels against independent direct-loop float64 references.

The references below share nothing with ``repro.nn.functional`` (no windows,
no GEMM, no taps): they walk output positions one at a time.  Tolerances are
set from the dtype — float32 kernels against a float64 reference with O(100)
terms of magnitude <= 0.1 per sum — not tuned to the implementation.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data import load_dataset
from repro.fl import FLClient, FLConfig, ModelPool
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
    inference,
)
from repro.nn import functional as F
from repro.nn.models import create_model

CHANNELS = 4


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def _reference_conv(inputs, weight, grad_output_fn, stride, padding, groups):
    """Direct-loop grouped convolution in float64: output and all three gradients."""
    inputs, weight = inputs.astype(np.float64), weight.astype(np.float64)
    batch, in_channels, height, width = inputs.shape
    out_channels, group_in, kernel, _ = weight.shape
    group_out = out_channels // groups
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    padded = np.pad(inputs, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    output = np.zeros((batch, out_channels, out_h, out_w))
    for index in np.ndindex(*output.shape):
        b, o, y, x = index
        first = (o // group_out) * group_in
        window = padded[b, first : first + group_in, y * stride :, x * stride :][:, :kernel, :kernel]
        output[index] = np.sum(window * weight[o])
    grad_output = grad_output_fn(output.shape).astype(np.float64)
    grad_padded, grad_weight = np.zeros_like(padded), np.zeros_like(weight)
    for index in np.ndindex(*output.shape):
        b, o, y, x = index
        first = (o // group_out) * group_in
        rows, cols = slice(y * stride, y * stride + kernel), slice(x * stride, x * stride + kernel)
        grad_weight[o] += grad_output[index] * padded[b, first : first + group_in, rows, cols]
        grad_padded[b, first : first + group_in, rows, cols] += grad_output[index] * weight[o]
    grad_input = grad_padded[:, :, padding : padding + height, padding : padding + width]
    return output, grad_input, grad_weight, grad_output.sum(axis=(0, 2, 3))


def _reference_max_pool(inputs, grad_output_fn, kernel, stride, padding):
    """Direct-loop max pooling: output and input gradient."""
    batch, channels, height, width = inputs.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    border = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    padded = np.pad(inputs.astype(np.float64), border, constant_values=-np.inf)
    output = np.zeros((batch, channels, out_h, out_w))
    grad_output = grad_output_fn(output.shape).astype(np.float64)
    grad_padded = np.zeros_like(padded)
    for index in np.ndindex(*output.shape):
        b, c, y, x = index
        rows, cols = slice(y * stride, y * stride + kernel), slice(x * stride, x * stride + kernel)
        window = padded[b, c, rows, cols]
        output[index] = window.max()
        ky, kx = np.unravel_index(window.argmax(), window.shape)
        grad_padded[b, c, y * stride + ky, x * stride + kx] += grad_output[index]
    return output, grad_padded[:, :, padding : padding + height, padding : padding + width]


def _uniform(seed, scale):
    generator = np.random.default_rng(seed)
    return lambda shape: generator.uniform(-scale, scale, size=shape).astype(np.float32)


def _assert_float32_contiguous(*arrays):
    for array in arrays:
        assert array.dtype == np.float32
        assert array.flags.c_contiguous


# ----------------------------------------------------------------------
# Convolution: every dispatch branch against the reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch", [1, 2, 7])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("groups", [1, 2, CHANNELS], ids=["dense", "grouped", "depthwise"])
def test_conv2d_matches_direct_loop_reference(groups, kernel, stride, padding, batch):
    inputs = _uniform(1, 0.5)((batch, CHANNELS, 8, 6))
    weight = _uniform(2, 0.2)((CHANNELS, CHANNELS // groups, kernel, kernel))
    bias = _uniform(3, 0.2)((CHANNELS,))
    expected = _reference_conv(inputs, weight, _uniform(4, 0.2), stride, padding, groups)

    output, cache = F.conv2d_forward(inputs, weight, bias, stride, padding, groups)
    grads = F.conv2d_backward(_uniform(4, 0.2)(output.shape), weight, cache)

    _assert_float32_contiguous(output, *grads)
    np.testing.assert_allclose(output, expected[0] + bias.reshape(1, -1, 1, 1), rtol=1e-5, atol=1e-6)
    for got, want in zip(grads, expected[1:], strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_conv2d_channel_multiplier_takes_the_grouped_path():
    # groups == in_channels but two filters per channel: not the depthwise kernel.
    inputs = _uniform(1, 0.5)((2, CHANNELS, 7, 5))
    weight = _uniform(2, 0.2)((2 * CHANNELS, 1, 3, 3))
    expected = _reference_conv(inputs, weight, _uniform(4, 0.2), 1, 1, CHANNELS)
    output, cache = F.conv2d_forward(inputs, weight, None, 1, 1, CHANNELS)
    assert "columns" in cache
    *grads, grad_bias = F.conv2d_backward(_uniform(4, 0.2)(output.shape), weight, cache)
    assert grad_bias is None  # no bias, no bias reduction
    for got, want in zip((output, *grads), expected[:3], strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_conv2d_dispatch_is_decided_by_the_call_alone():
    inputs = _uniform(1, 0.5)((2, CHANNELS, 6, 6))
    pointwise = F.conv2d_forward(inputs, _uniform(2, 0.2)((8, CHANNELS, 1, 1)), None, 1, 0)[1]
    assert np.shares_memory(pointwise["columns"], inputs)  # 1x1: a view, no im2col
    depthwise = F.conv2d_forward(inputs, _uniform(2, 0.2)((CHANNELS, 1, 3, 3)), None, 1, 1, CHANNELS)[1]
    assert "columns" not in depthwise and depthwise["padded"].shape == (2, 8, 8, CHANNELS)
    dense = F.conv2d_forward(inputs, _uniform(2, 0.2)((8, CHANNELS, 3, 3)), None, 1, 1)[1]
    assert dense["columns"].shape == (2, CHANNELS * 9, 36) and dense["columns"].flags.c_contiguous


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 2, 0), (3, 2, 1), (3, 1, 1), (2, 1, 0)])
def test_pooling_matches_direct_loop_reference(kernel, stride, padding, batch):
    inputs = _uniform(5, 1.0)((batch, 3, 7, 6))
    expected_output, expected_grad = _reference_max_pool(inputs, _uniform(6, 1.0), kernel, stride, padding)
    output, cache = F.max_pool2d_forward(inputs, kernel, stride, padding)
    grad_input = F.max_pool2d_backward(_uniform(6, 1.0)(output.shape), cache)
    _assert_float32_contiguous(output, grad_input)
    np.testing.assert_allclose(output, expected_output, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(grad_input, expected_grad, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("batch", [1, 3])
def test_global_avg_pool_matches_direct_loop_reference(batch):
    inputs = _uniform(5, 1.0)((batch, 3, 7, 6))
    grad_output = _uniform(6, 1.0)((batch, 3, 1, 1))
    expected_output = np.zeros((batch, 3, 1, 1))
    expected_grad = np.zeros(inputs.shape)
    for b, c in np.ndindex(batch, 3):
        expected_output[b, c, 0, 0] = inputs[b, c].astype(np.float64).sum() / 42
        expected_grad[b, c] = grad_output[b, c, 0, 0] / 42
    output, cache = F.global_avg_pool_forward(inputs)
    grad_input = F.global_avg_pool_backward(grad_output, cache)
    _assert_float32_contiguous(output, grad_input)
    np.testing.assert_allclose(output, expected_output, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(grad_input, expected_grad, rtol=1e-6, atol=1e-7)


def test_padded_max_pool_ignores_the_padding_on_negative_inputs():
    # Zero padding used to win the max over all-negative windows and swallow
    # their gradient: forward gave [[0, 0], [0, -1]], backward summed to 1.
    inputs = -np.ones((1, 1, 4, 4), np.float32)
    output, cache = F.max_pool2d_forward(inputs, 3, 2, 1)
    np.testing.assert_array_equal(output, -np.ones((1, 1, 2, 2), np.float32))
    grad_input = F.max_pool2d_backward(np.ones_like(output), cache)
    assert grad_input.sum() == 4.0
    assert grad_input.shape == inputs.shape


def test_padded_max_pool_gradient_matches_float64_finite_differences(rng):
    inputs = rng.normal(size=(2, 2, 5, 4)) - 1.0  # mostly negative: padding must never win
    output, cache = F.max_pool2d_forward(inputs, 3, 2, 1)
    assert output.dtype == np.float64  # pooling keeps the dtype it is given
    grad_output = rng.normal(size=output.shape)
    analytic = F.max_pool2d_backward(grad_output, cache)
    numeric = np.zeros_like(inputs)
    for index in np.ndindex(*inputs.shape):
        shifted = inputs.copy()
        shifted[index] += 1e-6
        plus = np.sum(F.max_pool2d_forward(shifted, 3, 2, 1)[0] * grad_output)
        shifted[index] -= 2e-6
        minus = np.sum(F.max_pool2d_forward(shifted, 3, 2, 1)[0] * grad_output)
        numeric[index] = (plus - minus) / 2e-6
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_max_pool_tie_sends_the_gradient_to_the_first_maximum():
    inputs = np.zeros((1, 1, 2, 2), np.float32)  # what a ReLU hands a pool all the time
    output, cache = F.max_pool2d_forward(inputs, 2, 2)
    grad_input = F.max_pool2d_backward(np.full_like(output, 3.0), cache)
    np.testing.assert_array_equal(grad_input, [[[[3.0, 0.0], [0.0, 0.0]]]])


# ----------------------------------------------------------------------
# BatchNorm
# ----------------------------------------------------------------------
def test_batchnorm_training_matches_float64_reference(rng):
    layer = BatchNorm2d(3)
    layer.weight.data[...] = rng.uniform(0.5, 1.5, size=3)
    layer.bias.data[...] = rng.uniform(-0.5, 0.5, size=3)
    inputs = rng.normal(1.0, 2.0, size=(4, 3, 5, 3)).astype(np.float32)
    grad_output = rng.normal(size=inputs.shape).astype(np.float32)
    output = layer(inputs)
    grad_input = layer.backward(grad_output)
    _assert_float32_contiguous(output, grad_input, layer.weight.grad, layer.bias.grad)

    x, g = inputs.astype(np.float64), grad_output.astype(np.float64)
    axes, shape = (0, 2, 3), (1, -1, 1, 1)
    weight = layer.weight.data.astype(np.float64).reshape(shape)
    mean, var = x.mean(axis=axes, keepdims=True), x.var(axis=axes, keepdims=True)
    normalized = (x - mean) / np.sqrt(var + layer.eps)
    np.testing.assert_allclose(output, normalized * weight + layer.bias.data.reshape(shape), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(layer.weight.grad, (g * normalized).sum(axis=axes), rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(layer.bias.grad, g.sum(axis=axes), rtol=1e-4, atol=1e-5)
    grad_normalized = g * weight
    expected = (
        grad_normalized
        - grad_normalized.mean(axis=axes, keepdims=True)
        - normalized * (grad_normalized * normalized).mean(axis=axes, keepdims=True)
    ) / np.sqrt(var + layer.eps)
    np.testing.assert_allclose(grad_input, expected, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(layer._buffers["running_var"], 0.9 + 0.1 * var.ravel(), rtol=1e-5)
    assert layer._buffers["running_mean"].dtype == layer._buffers["running_var"].dtype == np.float32


def test_batchnorm_eval_forward_needs_no_normalised_copy(rng):
    layer = BatchNorm2d(2).eval()
    layer._buffers["running_mean"] = rng.normal(size=2).astype(np.float32)
    inputs = rng.normal(size=(3, 2, 4, 4)).astype(np.float32)
    output = layer(inputs)
    assert layer._cache[0] is None  # rebuilt only if backward is called
    expected = (inputs - layer._buffers["running_mean"].reshape(1, -1, 1, 1)) / np.sqrt(1.0 + layer.eps)
    np.testing.assert_allclose(output, expected, rtol=1e-5, atol=1e-6)
    grad_output = rng.normal(size=inputs.shape).astype(np.float32)
    layer.backward(grad_output)
    np.testing.assert_allclose(layer.weight.grad, (grad_output * expected).sum(axis=(0, 2, 3)), rtol=1e-4, atol=1e-5)


# ----------------------------------------------------------------------
# No writes into the caller's arrays, no state between calls
# ----------------------------------------------------------------------
def _layers_under_test():
    generator = np.random.default_rng(7)
    return [
        Conv2d(4, 6, 1, rng=generator),
        Conv2d(4, 6, 1, stride=2, rng=generator),
        Conv2d(4, 4, 3, padding=1, groups=4, rng=generator),
        Conv2d(4, 6, 3, padding=1, rng=generator),
        Conv2d(4, 6, 3, padding=1, groups=2, rng=generator),
        BatchNorm2d(4),
        BatchNorm2d(4).eval(),
        ReLU(),
        ReLU6(),
        MaxPool2d(2),
        MaxPool2d(3, stride=2, padding=1),
        Dropout(0.5, rng=generator),
        create_model("mobilenetv2", "tiny", num_classes=10, seed=3).features[1],  # a residual block
    ]


@pytest.mark.parametrize(
    "layer", [*_layers_under_test(), GlobalAvgPool2d()], ids=lambda layer: type(layer).__name__
)
def test_read_only_arrays_survive_forward_and_backward(layer, rng):
    channels = 16 if type(layer).__name__ == "InvertedResidual" else 4
    inputs = rng.normal(size=(2, channels, 6, 6)).astype(np.float32)
    before = inputs.copy()
    inputs.flags.writeable = False
    output = layer(inputs)
    snapshot = output.copy()
    grad_output = rng.normal(size=output.shape).astype(np.float32)
    grad_before = grad_output.copy()
    grad_output.flags.writeable = False
    grad_input = layer.backward(grad_output)
    _assert_float32_contiguous(output, grad_input)
    assert grad_input.shape == inputs.shape
    np.testing.assert_array_equal(inputs, before)
    np.testing.assert_array_equal(grad_output, grad_before)
    np.testing.assert_array_equal(output, snapshot)  # backward leaves the returned output alone


@pytest.mark.parametrize(
    "layer",
    [*_layers_under_test(), Linear(6, 3), Flatten(), GlobalAvgPool2d(), Dropout(0.5).eval()],
    ids=lambda layer: f"{type(layer).__name__}-{'train' if layer.training else 'eval'}",
)
def test_backward_after_an_inference_forward_raises_naming_the_mode(layer, rng):
    channels = 16 if type(layer).__name__ == "InvertedResidual" else 4
    shape = (2, 6) if isinstance(layer, Linear) else (2, channels, 6, 6)
    inputs = rng.normal(size=shape).astype(np.float32)
    layer.backward(np.ones_like(layer(inputs)))  # a kept cache: backward works
    with inference():
        output = layer(inputs)
    assert all(module._cache is None for _, module in layer.named_modules())
    with pytest.raises(RuntimeError, match=r"inference\(\)"):
        layer.backward(np.ones_like(output))
    layer(inputs)  # a forward outside the mode keeps its cache again
    assert layer.backward(np.ones_like(output)).shape == inputs.shape


def test_linear_keeps_read_only_inputs(rng):
    layer = Linear(5, 3, rng=rng)
    inputs = rng.normal(size=(4, 5)).astype(np.float32)
    inputs.flags.writeable = False
    output = layer(inputs)
    grad_output = np.ones_like(output)
    grad_output.flags.writeable = False
    _assert_float32_contiguous(output, layer.backward(grad_output))


def _train_step(model, batch, seed):
    generator = np.random.default_rng(seed)
    images = generator.normal(size=(batch, 3, 16, 16)).astype(np.float32)
    model.zero_grad()
    logits = model(images)
    grad_input = model.backward(generator.normal(size=logits.shape).astype(np.float32))
    return [logits, grad_input] + [parameter.grad for parameter in model.parameters()]


@pytest.mark.parametrize("name", ["mobilenetv2", "alexnet", "resnet18"])
def test_batch_2_then_128_then_2_is_bit_identical_to_a_fresh_model(name):
    used = create_model(name, "tiny", num_classes=10, seed=5)
    _train_step(used, 2, seed=1)
    used.eval()
    used(np.random.default_rng(2).normal(size=(128, 3, 16, 16)).astype(np.float32))
    used.train()
    fresh = create_model(name, "tiny", num_classes=10, seed=5)
    fresh.load_state_dict(used.state_dict())  # same BatchNorm running statistics
    for model in (used, fresh):  # the same Dropout draw on both
        for module in (m for _, m in model.named_modules() if isinstance(m, Dropout)):
            module._rng = np.random.default_rng(11)
    for got, want in zip(
        _train_step(used, 2, seed=3), _train_step(fresh, 2, seed=3), strict=True
    ):
        np.testing.assert_array_equal(got, want)


def test_pooled_model_carries_nothing_from_the_previous_borrower():
    data = load_dataset("cifar10", num_samples=64, image_size=16, seed=0)
    model_fn = lambda: create_model("mobilenetv2", "tiny", num_classes=10, seed=9)  # noqa: E731
    global_state = model_fn().state_dict()
    config = FLConfig(num_clients=2, batch_size=2, local_epochs=1)

    def second_client_update(pool, warm):
        if warm:  # another client trains at batch 2, then the model sees a batch of 48
            FLClient(0, model_fn, data.subset(np.arange(8)), config, seed=1, model_pool=pool).train(global_state)
            with pool.borrow() as model:
                model.eval()(data.images[:48])
        client = FLClient(1, model_fn, data.subset(np.arange(8, 16)), config, seed=2, model_pool=pool)
        client.train(global_state)
        return client.train(global_state).state_dict

    warm = second_client_update(ModelPool(model_fn), warm=True)
    cold = second_client_update(ModelPool(model_fn), warm=False)
    assert list(warm) == list(cold)
    for name in warm:
        np.testing.assert_array_equal(warm[name], cold[name])


@pytest.mark.parametrize("name", ["mobilenetv2", "alexnet", "resnet18"])
def test_forward_cache_is_scratch_not_state(name):
    model = create_model(name, "tiny", num_classes=10, seed=5)
    keys = list(model.state_dict())
    nbytes = model.state_nbytes()
    pickled = len(pickle.dumps(model))
    _train_step(model, 4, seed=1)
    model.zero_grad()  # Parameter.grad is the optimiser's, not a layer's scratch
    assert any(module._cache is not None for _, module in model.named_modules())
    assert list(model.state_dict()) == keys
    assert model.state_nbytes() == nbytes
    assert len(pickle.dumps(model)) <= pickled
    clone = pickle.loads(pickle.dumps(model))
    assert all(module._cache is None for _, module in clone.named_modules())
