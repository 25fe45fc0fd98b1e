"""Numerical gradient checks and behavioural tests for the layers."""

from __future__ import annotations

import numpy as np
import pytest

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
    Sequential,
)
from repro.nn import functional as F


def _numerical_input_gradient(module, inputs, grad_output, epsilon=1e-3):
    """Central-difference gradient of sum(output * grad_output) w.r.t. inputs."""
    numeric = np.zeros_like(inputs, dtype=np.float64)
    flat_inputs = inputs.reshape(-1)
    flat_numeric = numeric.reshape(-1)
    for index in range(flat_inputs.size):
        original = flat_inputs[index]
        flat_inputs[index] = original + epsilon
        plus = float(np.sum(module(inputs).astype(np.float64) * grad_output))
        flat_inputs[index] = original - epsilon
        minus = float(np.sum(module(inputs).astype(np.float64) * grad_output))
        flat_inputs[index] = original
        flat_numeric[index] = (plus - minus) / (2 * epsilon)
    return numeric


def _numerical_parameter_gradient(module, parameter, inputs, grad_output, epsilon=1e-3):
    """Central-difference gradient w.r.t. one parameter tensor."""
    numeric = np.zeros_like(parameter.data, dtype=np.float64)
    flat_data = parameter.data.reshape(-1)
    flat_numeric = numeric.reshape(-1)
    for index in range(flat_data.size):
        original = flat_data[index]
        flat_data[index] = original + epsilon
        plus = float(np.sum(module(inputs).astype(np.float64) * grad_output))
        flat_data[index] = original - epsilon
        minus = float(np.sum(module(inputs).astype(np.float64) * grad_output))
        flat_data[index] = original
        flat_numeric[index] = (plus - minus) / (2 * epsilon)
    return numeric


def _check_input_gradient(module, inputs, tolerance=2e-2):
    grad_output = np.random.default_rng(0).normal(size=module(inputs).shape).astype(np.float32)
    module(inputs)  # refresh cache with the final input
    analytic = module.backward(grad_output)
    numeric = _numerical_input_gradient(module, inputs.copy(), grad_output)
    np.testing.assert_allclose(analytic, numeric, rtol=tolerance, atol=tolerance)


# ----------------------------------------------------------------------
# Linear
# ----------------------------------------------------------------------
def test_linear_forward_matches_matmul(rng):
    layer = Linear(5, 3, rng=rng)
    inputs = rng.normal(size=(4, 5)).astype(np.float32)
    expected = inputs @ layer.weight.data.T + layer.bias.data
    np.testing.assert_allclose(layer(inputs), expected, rtol=1e-6)


def test_linear_gradients_match_numerical(rng):
    layer = Linear(4, 3, rng=rng)
    inputs = rng.normal(size=(2, 4)).astype(np.float32)
    _check_input_gradient(layer, inputs)
    grad_output = rng.normal(size=(2, 3)).astype(np.float32)
    layer.zero_grad()
    layer(inputs)
    layer.backward(grad_output)
    numeric_weight = _numerical_parameter_gradient(layer, layer.weight, inputs, grad_output)
    np.testing.assert_allclose(layer.weight.grad, numeric_weight, rtol=2e-2, atol=2e-2)
    numeric_bias = _numerical_parameter_gradient(layer, layer.bias, inputs, grad_output)
    np.testing.assert_allclose(layer.bias.grad, numeric_bias, rtol=2e-2, atol=2e-2)


def test_linear_without_bias():
    layer = Linear(3, 2, bias=False)
    assert layer.bias is None
    assert "bias" not in dict(layer.named_parameters())


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def test_conv2d_output_shape(rng):
    layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
    output = layer(rng.normal(size=(2, 3, 9, 9)).astype(np.float32))
    assert output.shape == (2, 8, 5, 5)


def test_conv2d_matches_direct_convolution(rng):
    layer = Conv2d(2, 3, 3, stride=1, padding=1, rng=rng)
    inputs = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
    output = layer(inputs)
    padded = np.pad(inputs, ((0, 0), (0, 0), (1, 1), (1, 1)))
    expected = np.zeros_like(output)
    for out_channel in range(3):
        for y in range(5):
            for x in range(5):
                window = padded[0, :, y : y + 3, x : x + 3]
                expected[0, out_channel, y, x] = (
                    np.sum(window * layer.weight.data[out_channel]) + layer.bias.data[out_channel]
                )
    np.testing.assert_allclose(output, expected, rtol=1e-4, atol=1e-5)


def test_conv2d_input_gradient_matches_numerical(rng):
    layer = Conv2d(2, 3, 3, stride=1, padding=1, rng=rng)
    inputs = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
    _check_input_gradient(layer, inputs)


def test_conv2d_weight_gradient_matches_numerical(rng):
    layer = Conv2d(2, 2, 3, stride=2, padding=1, rng=rng)
    inputs = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
    grad_output = rng.normal(size=layer(inputs).shape).astype(np.float32)
    layer.zero_grad()
    layer(inputs)
    layer.backward(grad_output)
    numeric = _numerical_parameter_gradient(layer, layer.weight, inputs, grad_output)
    np.testing.assert_allclose(layer.weight.grad, numeric, rtol=2e-2, atol=2e-2)


def test_depthwise_conv_gradient_matches_numerical(rng):
    layer = Conv2d(4, 4, 3, stride=1, padding=1, groups=4, rng=rng)
    inputs = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
    _check_input_gradient(layer, inputs)


def test_grouped_conv_channel_validation():
    with pytest.raises(ValueError):
        Conv2d(3, 4, 3, groups=2)


def test_conv2d_depthwise_is_per_channel(rng):
    layer = Conv2d(2, 2, 1, groups=2, bias=False, rng=rng)
    layer.weight.data[...] = np.array([[[[2.0]]], [[[3.0]]]], dtype=np.float32)
    inputs = np.ones((1, 2, 2, 2), dtype=np.float32)
    output = layer(inputs)
    np.testing.assert_allclose(output[0, 0], 2.0)
    np.testing.assert_allclose(output[0, 1], 3.0)


# ----------------------------------------------------------------------
# BatchNorm
# ----------------------------------------------------------------------
def test_batchnorm_normalises_in_training_mode(rng):
    layer = BatchNorm2d(3)
    inputs = rng.normal(2.0, 3.0, size=(8, 3, 4, 4)).astype(np.float32)
    output = layer(inputs)
    assert abs(float(output.mean())) < 1e-5
    assert abs(float(output.var()) - 1.0) < 1e-2


def test_batchnorm_updates_running_statistics(rng):
    layer = BatchNorm2d(2, momentum=0.5)
    inputs = rng.normal(1.0, 2.0, size=(16, 2, 4, 4)).astype(np.float32)
    layer(inputs)
    assert layer._buffers["num_batches_tracked"] == 1
    assert np.all(layer._buffers["running_mean"] != 0.0)
    running_mean_after_first = layer._buffers["running_mean"].copy()
    layer(inputs)
    assert not np.allclose(layer._buffers["running_mean"], running_mean_after_first)


def test_batchnorm_eval_uses_running_statistics(rng):
    layer = BatchNorm2d(2)
    train_inputs = rng.normal(5.0, 2.0, size=(32, 2, 4, 4)).astype(np.float32)
    for _ in range(20):
        layer(train_inputs)
    layer.eval()
    shifted = rng.normal(-5.0, 1.0, size=(4, 2, 4, 4)).astype(np.float32)
    output = layer(shifted)
    # With running stats centred near +5, a -5-centred batch maps well below zero.
    assert float(output.mean()) < -1.0


def test_batchnorm_input_gradient_matches_numerical(rng):
    layer = BatchNorm2d(2)
    layer.eval()  # the eval-mode path has a simple exact gradient
    layer._buffers["running_mean"] = rng.normal(size=2).astype(np.float32)
    layer._buffers["running_var"] = np.abs(rng.normal(1.0, 0.1, size=2)).astype(np.float32)
    inputs = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
    _check_input_gradient(layer, inputs)


def test_batchnorm_training_gradient_sums_to_zero(rng):
    # In training mode the gradient through the batch statistics must make the
    # per-channel input gradients sum to ~0 (property of the BN backward).
    layer = BatchNorm2d(3)
    inputs = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
    layer(inputs)
    grad_input = layer.backward(rng.normal(size=inputs.shape).astype(np.float32))
    per_channel_sum = grad_input.sum(axis=(0, 2, 3))
    np.testing.assert_allclose(per_channel_sum, np.zeros(3), atol=1e-3)


# ----------------------------------------------------------------------
# Activations, pooling, dropout, flatten
# ----------------------------------------------------------------------
def test_relu_and_relu6_forward():
    inputs = np.array([[-1.0, 0.5, 7.0]], dtype=np.float32)
    np.testing.assert_allclose(ReLU()(inputs), [[0.0, 0.5, 7.0]])
    np.testing.assert_allclose(ReLU6()(inputs), [[0.0, 0.5, 6.0]])


def test_relu_backward_masks_negative(rng):
    layer = ReLU()
    inputs = np.array([[-1.0, 2.0, -3.0, 4.0]], dtype=np.float32)
    layer(inputs)
    grad = layer.backward(np.ones_like(inputs))
    np.testing.assert_allclose(grad, [[0.0, 1.0, 0.0, 1.0]])


def test_relu6_backward_masks_saturated():
    layer = ReLU6()
    inputs = np.array([[-1.0, 3.0, 8.0]], dtype=np.float32)
    layer(inputs)
    grad = layer.backward(np.ones_like(inputs))
    np.testing.assert_allclose(grad, [[0.0, 1.0, 0.0]])


def test_maxpool_forward_and_backward(rng):
    layer = MaxPool2d(2, stride=2)
    inputs = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
    output = layer(inputs)
    assert output.shape == (1, 1, 2, 2)
    assert output[0, 0, 0, 0] == inputs[0, 0, :2, :2].max()
    grad_input = layer.backward(np.ones_like(output))
    # Exactly one gradient unit flows to each window's argmax.
    assert grad_input.sum() == pytest.approx(4.0)
    assert np.count_nonzero(grad_input) == 4


def test_maxpool_gradient_matches_numerical(rng):
    layer = MaxPool2d(2, stride=2)
    inputs = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
    _check_input_gradient(layer, inputs)


@pytest.mark.parametrize("layer", [Conv2d, MaxPool2d])
@pytest.mark.parametrize(
    "geometry",
    [{"kernel_size": 0}, {"stride": 0}, {"stride": -1}, {"padding": -1}],
    ids=["kernel0", "stride0", "stride-1", "padding-1"],
)
def test_window_layers_reject_nonsense_geometry(layer, geometry):
    kwargs = {"kernel_size": 3, "stride": 1, "padding": 0, **geometry}
    channels = (3, 4) if layer is Conv2d else ()
    with pytest.raises(ValueError, match="kernel_size >= 1, stride >= 1 and padding >= 0"):
        layer(*channels, **kwargs)


def test_pooling_padding_is_at_most_half_the_kernel():
    # MaxPool2d(2, padding=2) used to build windows of padding alone: -inf out.
    with pytest.raises(ValueError, match="exceeds half the kernel size 2"):
        MaxPool2d(2, padding=2)
    assert MaxPool2d(3, stride=2, padding=1).padding == 1
    assert MaxPool2d(2).stride == 2  # stride defaults to the kernel size


@pytest.mark.parametrize("kernel,padding", [(5, 0), (7, 1)])
def test_window_larger_than_its_padded_input_names_the_shapes(kernel, padding):
    inputs = np.zeros((1, 2, 3, 4), np.float32)
    with pytest.raises(ValueError, match=f"kernel {kernel} with padding {padding} exceeds a 3x4 input"):
        F.im2col(inputs, kernel, 1, padding)
    with pytest.raises(ValueError, match="exceeds a 3x4 input"):
        F.max_pool2d_forward(inputs, kernel, 1, padding)


def test_global_avg_pool(rng):
    layer = GlobalAvgPool2d()
    inputs = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
    output = layer(inputs)
    assert output.shape == (2, 3, 1, 1)
    np.testing.assert_allclose(output[:, :, 0, 0], inputs.mean(axis=(2, 3)), rtol=1e-5)
    grad = layer.backward(np.ones_like(output))
    np.testing.assert_allclose(grad, np.full_like(inputs, 1.0 / 25.0))


def test_flatten_roundtrip(rng):
    layer = Flatten()
    inputs = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    output = layer(inputs)
    assert output.shape == (2, 48)
    assert layer.backward(output).shape == inputs.shape


def test_dropout_eval_is_identity(rng):
    layer = Dropout(0.5)
    layer.eval()
    inputs = rng.normal(size=(4, 10)).astype(np.float32)
    np.testing.assert_array_equal(layer(inputs), inputs)


def test_dropout_training_scales_kept_units(rng):
    layer = Dropout(0.5, rng=np.random.default_rng(0))
    inputs = np.ones((1000, 10), dtype=np.float32)
    output = layer(inputs)
    kept = output[output != 0]
    np.testing.assert_allclose(kept, 2.0)
    assert 0.4 < (output != 0).mean() < 0.6


def test_dropout_rejects_invalid_probability():
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_sequential_backward_chains(rng):
    model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
    inputs = rng.normal(size=(3, 4)).astype(np.float32)
    _check_input_gradient(model, inputs)


# ----------------------------------------------------------------------
# functional helpers
# ----------------------------------------------------------------------
def test_im2col_col2im_adjoint(rng):
    """col2im must be the exact adjoint of im2col (dot-product test)."""
    inputs = rng.normal(size=(2, 3, 6, 6)).astype(np.float64)
    for kernel, stride, padding in [(3, 2, 1), (1, 1, 0), (1, 2, 0)]:
        columns, _, _ = F.im2col(inputs, kernel=kernel, stride=stride, padding=padding)
        other = rng.normal(size=columns.shape)
        back = F.col2im(other, inputs.shape, kernel=kernel, stride=stride, padding=padding)
        lhs = float(np.sum(columns * other))
        rhs = float(np.sum(inputs * back))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(size=(5, 7)) * 10
    probabilities = F.softmax(logits)
    np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(5), rtol=1e-9)
    assert np.all(probabilities >= 0)


def test_accuracy_metric():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    targets = np.array([0, 1, 1])
    assert F.accuracy(logits, targets) == pytest.approx(2.0 / 3.0)
    assert F.accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int)) == 0.0
