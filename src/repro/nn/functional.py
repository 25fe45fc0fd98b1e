"""Functional building blocks: convolution, pooling, activations.

Everything operates on float32 numpy arrays in NCHW layout and returns both
the forward result and whatever cache the corresponding backward pass needs.
A pass is BLAS GEMMs plus a handful of contiguous float32 sweeps: float32 in
gives float32, C-contiguous out with no ``astype`` copy on the way, and no
function writes into an array it was handed (a cache may *alias* the caller's
input, so callers must not mutate an input between forward and backward).
Convolution and linear layers convert other dtypes on entry because their
parameters are float32; the shape-only ops (ReLU, pooling, ``im2col`` /
``col2im``) keep the dtype they are given.

Convolution takes one of three paths, selected by the call alone:

* ``kernel == 1`` and ``padding == 0`` — no window gathering: the columns are
  the input viewed as ``(batch, channels, height * width)`` (one strided
  gather when ``stride > 1``) and ``col2im`` is a reshape;
* ``groups == in_channels == out_channels`` (depthwise) — no columns at all:
  the padded input is held channels-last and its ``kernel²`` shifted taps are
  multiplied and reduced in one plain, path-search-free ``einsum`` over a
  strided window view.  The stride-1 forward and the input gradient (at every
  stride) sweep whole rows: a tap read along an output row of a channels-last
  array is one contiguous run of ``width · channels`` values, and the input
  gradient reads a reversed window of the output gradient, zero-stuffed at the
  stride and framed by ``kernel - 1`` zeros.  The strided forward and the
  weight gradient run each tap over one pixel's contiguous channels;
* anything else (dense or grouped ``k×k``) — windows are gathered once into a
  contiguous ``(batch, channels·k·k, positions)`` buffer.

The first and third share the GEMMs: ``np.matmul`` forward and for the column
gradient, one ``tensordot`` over batch and positions for the weight gradient.
The depthwise forward and input gradient start every element from ``+0.0``
and add its products in row-major ``(i, j)`` tap order, one rounding per
multiply and per add, so the whole-row sweep gives the bytes the per-tap loop
it replaced gave (``tests/nn/test_depthwise_taps.py``): the frame only adds
``0 · w = ±0``, and a sum begun at ``+0.0`` is never ``-0.0``, so that leaves
it where it was.  The one exception is an infinite weight, where ``0 · inf``
is NaN, so input-gradient elements that read the frame through it are NaN
instead of ``±inf`` or a finite sum.

``im2col`` and ``col2im`` on maps of up to 64 pixels (8×8) are one ``np.take``
through an index plan cached read-only (bounded ``lru_cache``) per sample
geometry ``(channels, height, width, kernel, stride, padding)``, so every batch
size shares it: padding reads a zero slot appended to each sample, and
``col2im`` adds each pixel's gathered contributions tap by tap into a ``+0.0``
image.  Larger maps, and pooling at every size, walk the ``kernel²`` strided
taps of a padded copy, which win once rows are wide (a gather costs ~1 ns a
value).  The path does not move a bit: a gather is a copy, each pixel sees the
same operands in the same order, and a sum begun at ``+0.0`` is never ``-0.0``
(``tests/nn/test_window_golden.py``).
"""

from __future__ import annotations

import functools
from typing import Iterator, Tuple

import numpy as np


# ----------------------------------------------------------------------
# Windows: padding, shifted taps, index plans, im2col / col2im
# ----------------------------------------------------------------------
# Maps of up to this many pixels move their windows through index plans: the
# size up to which the gather measured faster than the strided taps (ROADMAP 7(c)).
_GATHER_MAX_PIXELS = 64


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def _output_size(
    height: int, width: int, kernel: int, stride: int, padding: int
) -> Tuple[int, int]:
    """``(out_h, out_w)`` of a window walk; a ``ValueError`` when no window fits."""
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"kernel {kernel} with padding {padding} exceeds a {height}x{width} input")
    return out_h, out_w


def _pad(inputs: np.ndarray, padding: int, fill: float = 0.0) -> np.ndarray:
    """``inputs`` with a ``fill`` border (a copy), or ``inputs`` itself when ``padding == 0``."""
    if padding == 0:
        return inputs
    batch, channels, height, width = inputs.shape
    shape = (batch, channels, height + 2 * padding, width + 2 * padding)
    padded = np.zeros(shape, inputs.dtype) if fill == 0.0 else np.full(shape, fill, inputs.dtype)
    padded[:, :, padding : padding + height, padding : padding + width] = inputs
    return padded


def _crop(padded: np.ndarray, padding: int) -> np.ndarray:
    """Inverse of :func:`_pad`, as a contiguous array."""
    if padding == 0:
        return padded
    return np.ascontiguousarray(padded[:, :, padding:-padding, padding:-padding])


def _taps(
    padded: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> Iterator[np.ndarray]:
    """The ``kernel²`` shifted, strided views of an NCHW ``padded``, one per window offset.

    Each view has ``out_h × out_w`` spatial positions and is writable, so the
    same walk gathers windows (read the taps) and scatters them back (``+=``
    into the taps of a zero array).
    """
    for ky in range(kernel):
        rows = slice(ky, ky + stride * out_h, stride)
        for kx in range(kernel):
            yield padded[:, :, rows, slice(kx, kx + stride * out_w, stride)]


@functools.lru_cache(maxsize=256)
def _window_plan(
    channels: int, height: int, width: int, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """Where each column element of one sample comes from, ``(channels, kernel², positions)``.

    An index into the sample's flattened ``(channels, height, width)`` pixels,
    or ``channels * height * width`` — the zero slot :func:`_gather` appends —
    for a padding position.
    """
    out_h, out_w = _output_size(height, width, kernel, stride, padding)
    rows = (np.arange(kernel)[:, None] + stride * np.arange(out_h) - padding)[:, None, :, None]
    cols = (np.arange(kernel)[:, None] + stride * np.arange(out_w) - padding)[None, :, None, :]
    inside = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)  # (ky, kx, y, x)
    pixel = height * width * np.arange(channels)[:, None, None] + (rows * width + cols).reshape(
        kernel * kernel, -1
    )
    plan = np.where(inside.reshape(kernel * kernel, -1), pixel, channels * height * width)
    plan = plan.astype(np.intp, copy=False)
    plan.flags.writeable = False
    return plan


@functools.lru_cache(maxsize=256)
def _scatter_plan(
    channels: int, height: int, width: int, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """``(kernel², channels * height * width)``: for each tap and pixel, the one column
    element of that tap covering the pixel (a tap's windows never overlap), or the
    element count, :func:`_gather`'s zero slot, where none does."""
    gather = _window_plan(channels, height, width, kernel, stride, padding)
    taps = np.arange(kernel * kernel).reshape(1, -1, 1)
    plan = np.full((kernel * kernel, channels * height * width + 1), gather.size, np.intp)
    plan[np.broadcast_to(taps, gather.shape), gather] = np.arange(gather.size).reshape(gather.shape)
    plan = np.ascontiguousarray(plan[:, :-1])  # padding positions landed in the zero column
    plan.flags.writeable = False
    return plan


def _gather(values: np.ndarray, plan: np.ndarray) -> np.ndarray:
    """``values`` flattened per sample, one zero slot appended, taken through
    ``plan``: a fresh ``(batch, *plan.shape)`` array in the dtype of ``values``."""
    slot = np.zeros((len(values), 1), values.dtype)
    flat = np.concatenate([values.reshape(len(values), -1), slot], axis=1)
    # Every index is in range: "wrap" only skips the per-index check "raise" makes.
    return np.take(flat, plan, axis=1, mode="wrap")


def im2col(
    inputs: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Extract sliding windows as columns.

    Returns ``(columns, out_h, out_w)`` with ``columns`` of shape
    ``(batch, channels * kernel * kernel, out_h * out_w)`` in the dtype of
    ``inputs``.  For ``kernel == 1`` without padding the columns are a reshape
    of ``inputs`` — a *view* when ``stride == 1`` and ``inputs`` is contiguous
    — otherwise one freshly gathered contiguous buffer: taken through the
    window plan on small maps, copied from a strided window view on large ones.
    """
    batch, channels, height, width = inputs.shape
    out_h, out_w = _output_size(height, width, kernel, stride, padding)
    if kernel == 1 and padding == 0:
        if stride > 1:
            inputs = inputs[:, :, ::stride, ::stride]
        return inputs.reshape(batch, channels, out_h * out_w), out_h, out_w
    if height * width <= _GATHER_MAX_PIXELS:
        plan = _window_plan(channels, height, width, kernel, stride, padding)
        return _gather(inputs, plan).reshape(batch, -1, out_h * out_w), out_h, out_w
    padded = _pad(inputs, padding)
    strides = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, channels, kernel, kernel, out_h, out_w),
        strides=strides + (strides[2] * stride, strides[3] * stride),
        writeable=False,
    )
    columns = np.empty((batch, channels * kernel * kernel, out_h * out_w), dtype=inputs.dtype)
    columns.reshape(windows.shape)[...] = windows
    return columns, out_h, out_w


def col2im(
    columns: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add columns back to image space (adjoint of :func:`im2col`).

    A reshape of ``columns`` for an unpadded, unstrided ``kernel == 1``;
    otherwise ``kernel²`` additions into a ``+0.0`` image, of each pixel's
    contributions gathered through the scatter plan on small maps, of strided
    taps on large ones.
    """
    batch, channels, height, width = input_shape
    if kernel == 1 and stride == 1 and padding == 0:
        return columns.reshape(input_shape)
    out_h, out_w = _output_size(height, width, kernel, stride, padding)
    if height * width <= _GATHER_MAX_PIXELS:
        plan = _scatter_plan(channels, height, width, kernel, stride, padding)
        contributions = _gather(columns, plan)
        image = np.zeros((batch, plan.shape[1]), columns.dtype)
        for tap in range(len(plan)):
            image += contributions[:, tap]
        return image.reshape(input_shape)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=columns.dtype
    )
    windows = columns.reshape(batch, channels, kernel * kernel, out_h, out_w)
    for index, tap in enumerate(_taps(padded, kernel, stride, out_h, out_w)):
        tap += windows[:, :, index]
    return _crop(padded, padding)


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def _channels_last_windows(
    padded: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Read-only ``(batch, out_h, out_w, kernel, kernel, channels)`` view of a padded NHWC array."""
    batch, _, _, channels = padded.shape
    image, row, column, channel = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, out_h, out_w, kernel, kernel, channels),
        strides=(image, row * stride, column * stride, row, column, channel),
        writeable=False,
    )


def _row_sweep(
    origin: np.ndarray, taps: np.ndarray, out_h: int, out_w: int, direction: int
) -> np.ndarray:
    """The NHWC ``(batch, out_h, out_w, channels)`` array ``out[b, y, x, c] =
    Σ_(i, j) origin[b, y + direction·i, x + direction·j, c] · taps[i, j, c]``.

    ``origin`` is an NHWC array (or a view into one) whose ``(column, channel)``
    run is contiguous, so a window tap read along a whole output row is one
    contiguous run of ``out_w · channels`` values; the taps are tiled across the
    row to match.  One ``einsum`` then sweeps whole rows: every element starts
    from ``+0.0`` and adds its ``kernel²`` products in row-major ``(i, j)`` order.
    """
    batch, _, _, channels = origin.shape
    kernel = len(taps)
    image, row, column, channel = origin.strides
    windows = np.lib.stride_tricks.as_strided(
        origin,
        shape=(batch, out_h, kernel, kernel, out_w * channels),
        strides=(image, row, direction * row, direction * column, channel),
        writeable=False,
    )
    rows = np.einsum("byijx,ijx->byx", windows, np.tile(taps, (1, 1, out_w)))
    return rows.reshape(batch, out_h, out_w, channels)


def _stuffed_placement(
    size: int, out_size: int, kernel: int, stride: int, padding: int
) -> Tuple[slice, slice]:
    """``(outputs, frame)``: which output positions of one axis land inside the
    ``size + kernel - 1`` frame :func:`_depthwise_backward` sweeps, and where,
    spaced ``stride`` apart (zero-stuffed) behind ``kernel - 1 - padding`` zeros."""
    offset = kernel - 1 - padding
    first = -(min(offset, 0) // stride)  # the first output whose position is >= 0
    count = max(0, min(out_size, -(-(size + padding) // stride)) - first)
    start = first * stride + offset
    return slice(first, first + count), slice(start, start + stride * count, stride)


def _depthwise_forward(
    inputs: np.ndarray, weight: np.ndarray, stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Depthwise convolution as one multiply-reduce over the ``kernel²`` shifted
    taps of the padded input, held channels-last.

    At stride 1 a tap's reads along an output row are contiguous, so the
    reduction sweeps whole rows (:func:`_row_sweep`); at larger strides each
    tap runs over one pixel's contiguous channels.  Returns the NCHW output and
    the padded NHWC input the backward pass reuses.
    """
    batch, channels, height, width = inputs.shape
    kernel = weight.shape[-1]
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    padded = np.zeros((batch, height + 2 * padding, width + 2 * padding, channels), np.float32)
    padded[:, padding : padding + height, padding : padding + width] = inputs.transpose(0, 2, 3, 1)
    taps = np.ascontiguousarray(weight[:, 0].transpose(1, 2, 0))
    if stride == 1:
        output = _row_sweep(padded, taps, out_h, out_w, 1)
    else:
        windows = _channels_last_windows(padded, kernel, stride, out_h, out_w)
        output = np.einsum("bhwijc,ijc->bhwc", windows, taps)
    return np.ascontiguousarray(output.transpose(0, 3, 1, 2)), padded


def _depthwise_backward(
    grad_output: np.ndarray, weight: np.ndarray, padded: np.ndarray, stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(grad_input, grad_weight)`` of :func:`_depthwise_forward`.

    ``grad_weight`` is one multiply-reduce against the cached padded input.
    The input gradient is the same whole-row sweep as the stride-1 forward,
    over a reversed window (row and column strides negated) of the output
    gradient zero-stuffed at ``stride`` and framed by ``kernel - 1`` zeros, cut
    to what the unpadded interior reads, so no padded gradient is built.  Each
    element adds the products of the taps that cover it in the order the old
    per-tap ``+=`` loop did, plus ``0 · w`` for the rest, which changes nothing
    unless ``w`` is infinite: then the element is NaN where the loop gave
    ``±inf`` or a finite sum.
    """
    kernel = weight.shape[-1]
    batch, channels, out_h, out_w = grad_output.shape
    grad = np.ascontiguousarray(grad_output.transpose(0, 2, 3, 1))
    grad_weight = np.einsum(
        "bhwijc,bhwc->ijc", _channels_last_windows(padded, kernel, stride, out_h, out_w), grad
    )
    height, width = padded.shape[1] - 2 * padding, padded.shape[2] - 2 * padding
    framed = np.zeros((batch, height + kernel - 1, width + kernel - 1, channels), np.float32)
    rows = _stuffed_placement(height, out_h, kernel, stride, padding)
    columns = _stuffed_placement(width, out_w, kernel, stride, padding)
    framed[:, rows[1], columns[1]] = grad[:, rows[0], columns[0]]
    taps = np.ascontiguousarray(weight[:, 0].transpose(1, 2, 0))
    grad_input = _row_sweep(framed[:, kernel - 1 :, kernel - 1 :], taps, height, width, -1)
    return (
        np.ascontiguousarray(grad_input.transpose(0, 3, 1, 2)),
        np.ascontiguousarray(grad_weight.transpose(2, 0, 1)).reshape(weight.shape),
    )


def conv2d_forward(
    inputs: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    groups: int = 1,
) -> Tuple[np.ndarray, dict]:
    """Grouped 2-D convolution forward pass.

    ``weight`` has shape ``(out_channels, in_channels // groups, k, k)``.  The
    cache holds the padded channels-last input on the depthwise path and the
    columns (possibly a view of ``inputs``, see :func:`im2col`) otherwise.
    """
    inputs = np.asarray(inputs, dtype=np.float32)
    batch, in_channels, _, _ = inputs.shape
    out_channels, group_in, kernel, _ = weight.shape
    if in_channels % groups or out_channels % groups:
        raise ValueError("channel counts must be divisible by groups")
    if group_in != in_channels // groups:
        raise ValueError(
            f"weight expects {group_in} input channels per group, got {in_channels // groups}"
        )

    cache = {
        "input_shape": inputs.shape, "stride": stride, "padding": padding, "groups": groups,
        "bias": bias is not None,
    }
    if groups == in_channels == out_channels:
        output, cache["padded"] = _depthwise_forward(inputs, weight, stride, padding)
    else:
        columns, out_h, out_w = im2col(inputs, kernel, stride, padding)
        cache["columns"] = columns
        output = np.matmul(
            weight.reshape(groups, out_channels // groups, -1),
            columns.reshape(batch, groups, -1, out_h * out_w),
        ).reshape(batch, out_channels, out_h, out_w)
    if bias is not None:
        output += bias.reshape(1, -1, 1, 1)
    return output, cache


def conv2d_backward(
    grad_output: np.ndarray, weight: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients of a grouped convolution, following the path the forward took.

    Returns ``(grad_input, grad_weight, grad_bias)``; ``grad_bias`` is ``None``
    when the forward had no bias.
    """
    stride, padding, groups = cache["stride"], cache["padding"], cache["groups"]
    batch, out_channels, out_h, out_w = grad_output.shape
    grad_bias = grad_output.sum(axis=(0, 2, 3)) if cache["bias"] else None
    if "padded" in cache:
        grad_input, grad_weight = _depthwise_backward(
            grad_output, weight, cache["padded"], stride, padding
        )
        return grad_input, grad_weight, grad_bias

    columns = cache["columns"]
    grad_grouped = grad_output.reshape(batch, groups, out_channels // groups, out_h * out_w)
    weight_grouped = weight.reshape(groups, out_channels // groups, -1)
    if groups == 1:
        grad_weight = np.tensordot(grad_grouped[:, 0], columns, axes=((0, 2), (0, 2)))
    else:
        columns_grouped = columns.reshape(batch, groups, -1, out_h * out_w)
        grad_weight = np.matmul(grad_grouped, columns_grouped.transpose(0, 1, 3, 2)).sum(axis=0)
    grad_columns = np.matmul(weight_grouped.transpose(0, 2, 1), grad_grouped)
    grad_input = col2im(
        grad_columns.reshape(columns.shape), cache["input_shape"], weight.shape[-1], stride, padding
    )
    return grad_input, grad_weight.reshape(weight.shape), grad_bias


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool2d_forward(
    inputs: np.ndarray, kernel: int, stride: int, padding: int = 0
) -> Tuple[np.ndarray, dict]:
    """Max pooling forward pass: a running maximum over the window taps.

    Padding is ``-inf``, so a padded position never wins the maximum.
    """
    _, _, height, width = inputs.shape
    out_h, out_w = _output_size(height, width, kernel, stride, padding)
    padded = _pad(inputs, padding, -np.inf)
    taps = _taps(padded, kernel, stride, out_h, out_w)
    output = next(taps).copy()
    for tap in taps:
        np.maximum(output, tap, out=output)
    cache = {"padded": padded, "output": output, "kernel": kernel, "stride": stride, "padding": padding}
    return output, cache


def max_pool2d_backward(grad_output: np.ndarray, cache: dict) -> np.ndarray:
    """Max pooling backward pass.

    Each window's gradient goes to its first maximal element in row-major
    window order (what ``argmax`` picks), found by comparing the taps of the
    cached input with the cached output.
    """
    padded, output = cache["padded"], cache["output"]
    _, _, out_h, out_w = output.shape
    grad_padded = np.zeros_like(padded)
    unclaimed = np.ones(output.shape, dtype=bool)
    taps = _taps(padded, cache["kernel"], cache["stride"], out_h, out_w)
    grad_taps = _taps(grad_padded, cache["kernel"], cache["stride"], out_h, out_w)
    for tap, grad_tap in zip(taps, grad_taps, strict=True):
        hit = tap == output
        hit &= unclaimed
        unclaimed ^= hit
        grad_tap += grad_output * hit
    return _crop(grad_padded, cache["padding"])


def global_avg_pool_forward(inputs: np.ndarray) -> Tuple[np.ndarray, dict]:
    """Adaptive average pooling to a 1×1 spatial output."""
    return inputs.mean(axis=(2, 3), keepdims=True), {"input_shape": inputs.shape}


def global_avg_pool_backward(grad_output: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of global average pooling."""
    _, _, height, width = cache["input_shape"]
    return np.broadcast_to(grad_output, cache["input_shape"]) * (1.0 / (height * width))


# ----------------------------------------------------------------------
# Activations and classification head
# ----------------------------------------------------------------------
def relu_forward(inputs: np.ndarray, max_value: float | None = None) -> np.ndarray:
    """ReLU (or ReLU6 when ``max_value`` is set), one pass either way.

    The output is all :func:`relu_backward` needs, so no mask is built here.
    """
    if max_value is None:
        return np.maximum(inputs, 0.0)
    return np.clip(inputs, 0.0, max_value)


def relu_backward(
    grad_output: np.ndarray, output: np.ndarray, max_value: float | None = None
) -> np.ndarray:
    """ReLU backward pass: the gradient where ``0 < output`` (``< max_value``)."""
    mask = output > 0.0
    if max_value is not None:
        mask &= output < max_value
    return grad_output * mask


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / exponentials.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient with respect to the logits.

    The softmax runs in float64; the gradient goes back to float32.
    """
    probabilities = softmax(logits.astype(np.float64))
    batch = logits.shape[0]
    clipped = np.clip(probabilities[np.arange(batch), targets], 1e-12, None)
    loss = float(-np.mean(np.log(clipped)))
    grad = probabilities.copy()
    grad[np.arange(batch), targets] -= 1.0
    grad /= batch
    return loss, grad.astype(np.float32)


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    if logits.shape[0] == 0:
        return 0.0
    predictions = logits.argmax(axis=-1)
    return float(np.mean(predictions == targets))
