"""Golden bytes of the window kernels: ``im2col``, ``col2im`` and max pooling.

These kernels only move values and add or compare them elementwise, so a
change to how they walk their windows must leave every output bit where it
was.  Each digest below is the SHA-256 of one kernel's outputs (dtype, shape
and bytes) over the whole grid:

* batch 1, 3 and 64; maps from 1x1 to 16x16, including an odd 7x6;
* kernel 1, 2, 3 and 5; stride 1 and 2; padding 0, 1 and 2 for the
  convolution windows, and up to ``kernel // 2`` for pooling; every geometry
  whose window fits the padded map;
* float32 for every kernel, and float64 for pooling.

The inputs hold ties (thirteen distinct values), planes where every window is
negative, ``+0.0`` and ``-0.0``, and magnitudes of 1e30 beside thirds, so a
reordered sum, a dropped signed zero or a different tie winner moves a digest.
The one choice IEEE 754 leaves open is which zero ``np.maximum`` returns for
``(+0.0, -0.0)`` (x86-64 builds return the second operand, aarch64's ``FMAX``
``+0.0``), so the max-pooling forward digest hashes ``output + 0.0``, which
turns every ``-0.0`` into ``+0.0``.  No other digest depends on the host.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.nn import functional as F

BATCHES = (1, 3, 64)
MAPS = ((1, 1), (2, 2), (4, 4), (7, 6), (16, 16))
KERNELS = (1, 2, 3, 5)
STRIDES = (1, 2)
CONV_PADDINGS = (0, 1, 2)
CHANNELS = 2

GOLDEN = {
    ("im2col", "float32"): "313f992c9232b5abef0795959106532199ce69803700167755a1328717e976c7",
    ("col2im", "float32"): "eea124078a6e46b097c263c79efcad926d430759aa7c5040caa4f37dc0be7f4f",
    ("max_pool2d_forward", "float32"): "982fe19c596236549706dd87c3b522e0ecd7a0a3b0164431514a62f6c8b20877",
    ("max_pool2d_backward", "float32"): "234eeb572b5f5b2f40350924f685217a2725bfd6894001bcb41e9f2dffdcbcd0",
    ("max_pool2d_forward", "float64"): "bbfb394013ff7b7567b3eed4d5c96bd1236096138a4a84985c3e583155df7208",
    ("max_pool2d_backward", "float64"): "a98ed6eec9d3a4b15758cf4a8bddad94b9edb5c957dc754d8aec227037fe9c19",
}


def _values(shape, dtype, offset):
    """Deterministic values of ``shape`` with ties, negative planes, signed zeros and 1e30s."""
    index = np.arange(offset, offset + int(np.prod(shape)))
    values = (((index * 7919) % 13 - 6) / 3).astype(dtype)  # ties, thirds and +0.0
    values[index % 17 == 3] = -0.0
    values[index % 23 == 7] *= dtype(1e30)
    values = values.reshape(shape)
    if len(shape) == 4:  # planes whose every window (padding aside) is negative
        planes = (np.arange(shape[0])[:, None] + np.arange(shape[1])) % 3 == 2
        values[planes] = -np.abs(values[planes]) - dtype(8.0)
    return values


def _geometries(paddings_of):
    for batch in BATCHES:
        for height, width in MAPS:
            for kernel in KERNELS:
                for stride in STRIDES:
                    for padding in paddings_of(kernel):
                        if min(height, width) + 2 * padding >= kernel:
                            yield (batch, CHANNELS, height, width), kernel, stride, padding


def _conv_outputs(name, dtype):
    for shape, kernel, stride, padding in _geometries(lambda kernel: CONV_PADDINGS):
        if name == "im2col":
            yield F.im2col(_values(shape, dtype, 0), kernel, stride, padding)[0]
        else:
            out_h = F.conv_output_size(shape[2], kernel, stride, padding)
            out_w = F.conv_output_size(shape[3], kernel, stride, padding)
            columns = _values((shape[0], CHANNELS * kernel * kernel, out_h * out_w), dtype, 5)
            yield F.col2im(columns, shape, kernel, stride, padding)


def _pool_outputs(name, dtype):
    for shape, kernel, stride, padding in _geometries(lambda kernel: range(kernel // 2 + 1)):
        output, cache = F.max_pool2d_forward(_values(shape, dtype, 0), kernel, stride, padding)
        if name == "max_pool2d_forward":
            yield output + 0.0  # every -0.0 to +0.0: which zero wins a tie is the host's choice
        else:
            yield F.max_pool2d_backward(_values(output.shape, dtype, 5), cache)


def _digest(arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name,dtype", sorted(GOLDEN))
def test_window_kernel_bytes_match_the_golden_digest(name, dtype):
    outputs = _conv_outputs if name in ("im2col", "col2im") else _pool_outputs
    assert _digest(outputs(name, np.dtype(dtype).type)) == GOLDEN[name, dtype]
