"""Neural-network layers with explicit forward/backward passes."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.seeding import default_rng


#: Reshape target that broadcasts a per-channel vector over NCHW activations.
_PER_CHANNEL = (1, -1, 1, 1)

#: :class:`Dropout`'s cache after an identity forward (``None`` means no cache).
_UNMASKED = "unmasked"


def _window(kernel_size: int, stride: int, padding: int, pooling: bool = False) -> tuple:
    """``(kernel_size, stride, padding)`` as ints, rejecting geometry no window has.

    A pooling window may be padded by at most half its size (PyTorch's rule):
    wider padding makes windows of padding alone, whose maximum is ``-inf``.
    """
    kernel_size, stride, padding = int(kernel_size), int(stride), int(padding)
    if kernel_size < 1 or stride < 1 or padding < 0:
        raise ValueError(
            f"need kernel_size >= 1, stride >= 1 and padding >= 0, "
            f"got {kernel_size}, {stride} and {padding}"
        )
    if pooling and padding > kernel_size // 2:
        raise ValueError(f"pooling padding {padding} exceeds half the kernel size {kernel_size}")
    return kernel_size, stride, padding


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        rng = rng or default_rng()
        self.weight = Parameter(init.linear_weight(out_features, in_features, rng))
        if bias:
            self.bias = Parameter(init.linear_bias(out_features, in_features, rng))
        else:
            self.register_parameter("bias", None)
            object.__setattr__(self, "bias", None)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs = np.asarray(inputs, dtype=np.float32)
        output = inputs @ self.weight.data.T
        if self.bias is not None:
            output += self.bias.data
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.weight.accumulate_grad(grad_output.T @ self._saved())
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=0))
        return grad_output @ self.weight.data


class Conv2d(Module):
    """2-D convolution (supports grouped and depthwise convolutions)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        rng=None,
    ) -> None:
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("in_channels and out_channels must be divisible by groups")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size, self.stride, self.padding = _window(kernel_size, stride, padding)
        self.groups = int(groups)
        rng = rng or default_rng()
        self.weight = Parameter(
            init.conv_weight(out_channels, in_channels // groups, kernel_size, rng)
        )
        if bias:
            self.bias = Parameter(np.zeros(out_channels, dtype=np.float32))
        else:
            self.register_parameter("bias", None)
            object.__setattr__(self, "bias", None)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.bias is not None else None
        output, self._cache = F.conv2d_forward(
            inputs, self.weight.data, bias, self.stride, self.padding, self.groups
        )
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_input, grad_weight, grad_bias = F.conv2d_backward(
            grad_output, self.weight.data, self._saved()
        )
        self.weight.accumulate_grad(grad_weight)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_bias)
        return grad_input


class BatchNorm2d(Module):
    """Batch normalisation over the channel axis of NCHW inputs.

    Running statistics are tracked as buffers (``running_mean``,
    ``running_var`` and ``num_batches_tracked``) so that they appear in
    ``state_dict()`` — they are precisely the "metadata and non-weight
    parameters" FedSZ routes through the lossless path.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self.register_buffer("num_batches_tracked", np.array(0, dtype=np.int64))

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float32)
        if self.training:
            # One centred copy serves the variance, the normalised activations
            # (scaled in place) and the backward pass.
            mean = inputs.mean(axis=(0, 2, 3), keepdims=True)
            normalized = inputs - mean
            count = normalized.size // normalized.shape[1]
            var = np.einsum("bchw,bchw->c", normalized, normalized) / count
            inv_std = 1.0 / np.sqrt(var + self.eps)
            normalized *= inv_std.reshape(_PER_CHANNEL)
            output = normalized * self.weight.data.reshape(_PER_CHANNEL)
            output += self.bias.data.reshape(_PER_CHANNEL)
            buffers = self._buffers
            keep = 1.0 - self.momentum
            buffers["running_mean"] = keep * buffers["running_mean"] + self.momentum * mean.ravel()
            buffers["running_var"] = keep * buffers["running_var"] + self.momentum * var
            buffers["num_batches_tracked"] = buffers["num_batches_tracked"] + 1
            self._cache = (normalized, inv_std, None)
        else:
            # Running statistics fold into one multiply-add; ``normalized`` is
            # rebuilt from the kept inputs only if backward is called.
            mean = self._buffers["running_mean"]
            inv_std = 1.0 / np.sqrt(self._buffers["running_var"] + self.eps)
            scale = self.weight.data * inv_std
            output = inputs * scale.reshape(_PER_CHANNEL)
            output += (self.bias.data - mean * scale).reshape(_PER_CHANNEL)
            self._cache = (None, inv_std, (inputs, mean))
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalized, inv_std, frozen = self._saved()
        if frozen is not None:
            inputs, mean = frozen
            normalized = (inputs - mean.reshape(_PER_CHANNEL)) * inv_std.reshape(_PER_CHANNEL)
        grad_weight = np.einsum("bchw,bchw->c", grad_output, normalized)
        grad_bias = grad_output.sum(axis=(0, 2, 3))
        self.weight.accumulate_grad(grad_weight)
        self.bias.accumulate_grad(grad_bias)

        scale = (self.weight.data * inv_std).reshape(_PER_CHANNEL)
        if frozen is not None:
            return grad_output * scale
        # Full batch-norm gradient (statistics depend on the batch):
        # scale * (grad - mean(grad) - normalized * mean(grad * normalized)),
        # the two means being grad_bias / count and grad_weight / count.
        count = grad_output.size // grad_output.shape[1]
        grad_input = normalized * (grad_weight / -count).reshape(_PER_CHANNEL)
        grad_input += grad_output
        grad_input -= (grad_bias / count).reshape(_PER_CHANNEL)
        grad_input *= scale
        return grad_input


class ReLU(Module):
    """Rectified linear unit."""

    #: Upper clip of the activation (``None`` = unbounded).
    max_value: Optional[float] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = F.relu_forward(inputs, self.max_value)
        return self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return F.relu_backward(grad_output, self._saved(), self.max_value)


class ReLU6(ReLU):
    """ReLU clipped at 6, used throughout MobileNetV2."""

    max_value = 6.0


class MaxPool2d(Module):
    """Max pooling; ``stride`` defaults to ``kernel_size``."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0) -> None:
        super().__init__()
        stride = kernel_size if stride is None else stride
        self.kernel_size, self.stride, self.padding = _window(kernel_size, stride, padding, pooling=True)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output, self._cache = F.max_pool2d_forward(
            inputs, self.kernel_size, self.stride, self.padding
        )
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return F.max_pool2d_backward(grad_output, self._saved())


class GlobalAvgPool2d(Module):
    """Adaptive average pooling to 1×1 (the head pooling of ResNet/MobileNet)."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output, self._cache = F.global_avg_pool_forward(inputs)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return F.global_avg_pool_backward(grad_output, self._saved())


class Flatten(Module):
    """Flatten all dimensions after the batch axis."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._cache = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._saved())


class Dropout(Module):
    """Inverted dropout; identity in evaluation mode."""

    def __init__(self, probability: float = 0.5, rng=None) -> None:
        super().__init__()
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {probability}")
        self.probability = float(probability)
        self._rng = rng or default_rng()

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not self.training or self.probability == 0.0:
            self._cache = _UNMASKED
            return inputs
        keep = 1.0 - self.probability
        # bool -> float32 is a real conversion; the mask carries the 1/keep scale.
        self._cache = (self._rng.random(inputs.shape) < keep).astype(np.float32) / keep
        return inputs * self._cache

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = self._saved()
        if mask is _UNMASKED:
            return grad_output
        return grad_output * mask


class Identity(Module):
    """Pass-through module (used for optional residual projections)."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return inputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class Sequential(Module):
    """Container applying child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            self.add_module(str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[str(index)]

    def append(self, module: Module) -> "Sequential":
        """Add a module at the end of the container."""
        self.add_module(str(len(self._modules)), module)
        return self

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for module in self._modules.values():
            output = module(output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for module in reversed(list(self._modules.values())):
            grad = module.backward(grad)
        return grad
