"""Weight initialisation schemes.

The initialisers mirror the PyTorch defaults used by torchvision's AlexNet,
MobileNetV2 and ResNet implementations (Kaiming-normal fan-out for
convolutions, uniform fan-in for linear layers, ones/zeros for BatchNorm), so
that freshly constructed "pretrained-like" models exhibit the weight
distributions characterised in Figure 3 of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import default_rng


def kaiming_normal(shape, fan: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """He-normal initialisation with the given fan."""
    rng = rng or default_rng()
    std = np.sqrt(2.0 / max(fan, 1))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def conv_weight(out_channels: int, in_channels: int, kernel_size: int, rng=None) -> np.ndarray:
    """Kaiming-normal (fan-out) convolution kernel, torchvision's default."""
    fan_out = out_channels * kernel_size * kernel_size
    return kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), fan_out, rng)


def linear_weight(out_features: int, in_features: int, rng=None) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) linear weight, PyTorch's default."""
    rng = rng or default_rng()
    bound = 1.0 / np.sqrt(max(in_features, 1))
    return rng.uniform(-bound, bound, size=(out_features, in_features)).astype(np.float32)


def linear_bias(out_features: int, in_features: int, rng=None) -> np.ndarray:
    """Uniform bias matching PyTorch's Linear default."""
    rng = rng or default_rng()
    bound = 1.0 / np.sqrt(max(in_features, 1))
    return rng.uniform(-bound, bound, size=(out_features,)).astype(np.float32)
