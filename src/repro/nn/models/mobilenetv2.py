"""MobileNetV2 (Sandler et al., 2018) with inverted residual bottlenecks.

The ``"paper"`` variant follows the torchvision layer plan (width multiplier
1.0, ~3.5 M parameters, ~14 MB state dict — Table III of the FedSZ paper) and
uses BatchNorm everywhere, which is what makes ~3 % of its state dict
non-weight metadata (the lowest "% lossy data" of the three models).  The
``"tiny"`` variant keeps the inverted-residual structure at a width and depth
that trains quickly in pure numpy.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ReLU6,
    Sequential,
)
from repro.nn.module import Module
from repro.utils.seeding import default_rng


def _make_divisible(value: float, divisor: int = 8) -> int:
    """Round channel counts to multiples of ``divisor`` (torchvision helper)."""
    rounded = max(divisor, int(value + divisor / 2) // divisor * divisor)
    if rounded < 0.9 * value:
        rounded += divisor
    return rounded


def conv_bn_relu(
    in_channels: int,
    out_channels: int,
    kernel: int,
    stride: int,
    groups: int = 1,
    rng=None,
) -> Sequential:
    """Conv → BatchNorm → ReLU6 block."""
    padding = (kernel - 1) // 2
    return Sequential(
        Conv2d(
            in_channels,
            out_channels,
            kernel,
            stride=stride,
            padding=padding,
            groups=groups,
            bias=False,
            rng=rng,
        ),
        BatchNorm2d(out_channels),
        ReLU6(),
    )


class InvertedResidual(Module):
    """MobileNetV2 bottleneck: expand (1×1) → depthwise (3×3) → project (1×1)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int,
        expand_ratio: int,
        rng=None,
    ) -> None:
        super().__init__()
        if stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {stride}")
        hidden = int(round(in_channels * expand_ratio))
        self.use_residual = stride == 1 and in_channels == out_channels

        layers: List[Module] = []
        if expand_ratio != 1:
            layers.append(conv_bn_relu(in_channels, hidden, 1, 1, rng=rng))
        layers.append(conv_bn_relu(hidden, hidden, 3, stride, groups=hidden, rng=rng))
        layers.append(
            Sequential(
                Conv2d(hidden, out_channels, 1, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        )
        self.block = Sequential(*layers)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = self.block(inputs)
        if self.use_residual:
            return output + inputs
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_input = self.block.backward(grad_output)
        if self.use_residual:
            return grad_input + grad_output
        return grad_input


#: (expand_ratio, output_channels, repeats, first_stride) — torchvision plan.
_PAPER_SETTINGS: List[Tuple[int, int, int, int]] = [
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
]

#: Compact plan for the trainable tiny variant.
_TINY_SETTINGS: List[Tuple[int, int, int, int]] = [
    (1, 16, 1, 1),
    (4, 24, 2, 2),
    (4, 32, 2, 2),
]


class MobileNetV2(Module):
    """MobileNetV2 with a configurable size variant."""

    def __init__(
        self,
        num_classes: int = 10,
        in_channels: int = 3,
        variant: str = "paper",
        width_multiplier: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if variant not in {"paper", "tiny"}:
            raise ValueError(f"unknown MobileNetV2 variant {variant!r}")
        self.variant = variant
        self.num_classes = int(num_classes)
        rng = rng or default_rng()

        if variant == "paper":
            settings = _PAPER_SETTINGS
            stem_channels = _make_divisible(32 * width_multiplier)
            last_channels = _make_divisible(1280 * max(1.0, width_multiplier))
            stem_stride = 2
            dropout = 0.2
        else:
            settings = _TINY_SETTINGS
            stem_channels = 16
            last_channels = 96
            stem_stride = 1
            dropout = 0.1

        features: List[Module] = [conv_bn_relu(in_channels, stem_channels, 3, stem_stride, rng=rng)]
        channels = stem_channels
        for expand_ratio, base_channels, repeats, first_stride in settings:
            out_channels = (
                _make_divisible(base_channels * width_multiplier)
                if variant == "paper"
                else base_channels
            )
            for repeat in range(repeats):
                stride = first_stride if repeat == 0 else 1
                features.append(
                    InvertedResidual(channels, out_channels, stride, expand_ratio, rng=rng)
                )
                channels = out_channels
        features.append(conv_bn_relu(channels, last_channels, 1, 1, rng=rng))
        features.append(GlobalAvgPool2d())
        self.features = Sequential(*features)
        self.classifier = Sequential(
            Flatten(),
            Dropout(dropout, rng=rng),
            Linear(last_channels, num_classes, rng=rng),
        )

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.classifier(self.features(inputs))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.features.backward(self.classifier.backward(grad_output))
