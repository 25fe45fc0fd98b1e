"""Depthwise convolution bytes against an explicit tap-order float32 reference.

The depthwise forward and its input gradient only multiply each tap by its
weight and add the products up, so their bytes are fixed by one rule: every
element starts from ``+0.0`` and adds ``tap * w[i, j]`` in row-major
``(i, j)`` order, in float32, one rounding per multiply and per add.  The
reference below does exactly that with elementwise numpy ops on NCHW slices,
so it holds on any numpy version and host, where a recorded digest would not.
A kernel that reorders the taps, starts a sum from the first product instead of
``+0.0``, fuses a multiply into an add or drops a product moves some element of
this grid: :mod:`test_window_golden`'s values (ties, all-negative planes,
``±0.0`` and 1e30s, whose products overflow to ``±inf`` and meet as NaN) over
its batches and maps, at strides 1, 2 and 3, plus an odd 37-channel map wide
enough for numpy's vector loops and their remainders.  ``grad_weight`` is a
sum over batch and positions whose order is not the taps', and stays covered
by the float64 reference in :mod:`test_kernels_reference`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from test_window_golden import BATCHES, CHANNELS, CONV_PADDINGS, KERNELS, MAPS, _values

STRIDES = (1, 2, 3)
SHAPES = [(batch, CHANNELS, *size) for batch in BATCHES for size in MAPS] + [(2, 37, 9, 7)]


def _geometries(kernel):
    for shape in SHAPES:
        for stride in STRIDES:
            for padding in CONV_PADDINGS:
                if min(shape[2:]) + 2 * padding >= kernel:
                    yield shape, stride, padding


def _reference(inputs, weight, grad_output, stride, padding):
    """Tap-order float32 forward and input gradient of a depthwise convolution."""
    batch, channels, height, width = inputs.shape
    kernel = weight.shape[-1]
    _, _, out_h, out_w = grad_output.shape
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding), np.float32)
    padded[:, :, padding : padding + height, padding : padding + width] = inputs
    output = np.zeros((batch, channels, out_h, out_w), np.float32)
    grad_padded = np.zeros_like(padded)
    for i in range(kernel):
        rows = slice(i, i + stride * out_h, stride)
        for j in range(kernel):
            columns = slice(j, j + stride * out_w, stride)
            tap_weight = weight[:, 0, i, j].reshape(1, channels, 1, 1)
            output += padded[:, :, rows, columns] * tap_weight
            grad_padded[:, :, rows, columns] += grad_output * tap_weight
    return output, grad_padded[:, :, padding : padding + height, padding : padding + width]


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("kernel", KERNELS)
def test_depthwise_forward_and_input_gradient_follow_tap_order(kernel):
    for shape, stride, padding in _geometries(kernel):
        inputs = _values(shape, np.float32, 0)
        weight = _values((shape[1], 1, kernel, kernel), np.float32, 11)
        with np.errstate(over="ignore", invalid="ignore"):  # 1e30 * 1e30 is meant to overflow
            output, cache = F.conv2d_forward(inputs, weight, None, stride, padding, shape[1])
            grad_output = _values(output.shape, np.float32, 5)
            grad_input, _, _ = F.conv2d_backward(grad_output, weight, cache)
            want_output, want_grad_input = _reference(inputs, weight, grad_output, stride, padding)
        _assert_same_bytes(output, want_output)
        _assert_same_bytes(grad_input, want_grad_input)
