"""ResNet (He et al., 2015) with bottleneck blocks.

The ``"paper"`` variant is ResNet-50 (bottleneck blocks, [3, 4, 6, 3] stage
plan, ~25.6 M parameters).  The FedSZ paper's Table III quotes a somewhat
larger figure (4.5e7 parameters / 180 MB); the discrepancy is noted in
EXPERIMENTS.md — the torchvision ResNet-50 used here is the standard
architecture the paper cites.  The ``"tiny"`` variant uses basic residual
blocks at small width so federated training remains fast in pure numpy.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.module import Module
from repro.utils.seeding import default_rng


def _conv_bn(in_channels: int, out_channels: int, kernel: int, stride: int, rng=None) -> Sequential:
    """Convolution (no bias) followed by BatchNorm."""
    padding = (kernel - 1) // 2
    return Sequential(
        Conv2d(in_channels, out_channels, kernel, stride=stride, padding=padding, bias=False, rng=rng),
        BatchNorm2d(out_channels),
    )


class BasicBlock(Module):
    """Two 3×3 convolutions with an identity/projection shortcut."""

    expansion = 1

    def __init__(self, in_channels: int, channels: int, stride: int = 1, rng=None) -> None:
        super().__init__()
        self.conv1 = _conv_bn(in_channels, channels, 3, stride, rng=rng)
        self.relu1 = ReLU()
        self.conv2 = _conv_bn(channels, channels, 3, 1, rng=rng)
        self.relu2 = ReLU()
        out_channels = channels * self.expansion
        if stride != 1 or in_channels != out_channels:
            self.shortcut = _conv_bn(in_channels, out_channels, 1, stride, rng=rng)
        else:
            self.shortcut = Identity()

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        main = self.relu1(self.conv1(inputs))
        main = self.conv2(main)
        residual = self.shortcut(inputs)
        return self.relu2(main + residual)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_sum = self.relu2.backward(grad_output)
        grad_main = self.conv1.backward(self.relu1.backward(self.conv2.backward(grad_sum)))
        grad_shortcut = self.shortcut.backward(grad_sum)
        return grad_main + grad_shortcut


class Bottleneck(Module):
    """1×1 → 3×3 → 1×1 bottleneck block used by ResNet-50/101/152."""

    expansion = 4

    def __init__(self, in_channels: int, channels: int, stride: int = 1, rng=None) -> None:
        super().__init__()
        out_channels = channels * self.expansion
        self.conv1 = _conv_bn(in_channels, channels, 1, 1, rng=rng)
        self.relu1 = ReLU()
        self.conv2 = _conv_bn(channels, channels, 3, stride, rng=rng)
        self.relu2 = ReLU()
        self.conv3 = _conv_bn(channels, out_channels, 1, 1, rng=rng)
        self.relu3 = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.shortcut = _conv_bn(in_channels, out_channels, 1, stride, rng=rng)
        else:
            self.shortcut = Identity()

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        main = self.relu1(self.conv1(inputs))
        main = self.relu2(self.conv2(main))
        main = self.conv3(main)
        residual = self.shortcut(inputs)
        return self.relu3(main + residual)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_sum = self.relu3.backward(grad_output)
        grad_main = self.conv3.backward(grad_sum)
        grad_main = self.conv2.backward(self.relu2.backward(grad_main))
        grad_main = self.conv1.backward(self.relu1.backward(grad_main))
        grad_shortcut = self.shortcut.backward(grad_sum)
        return grad_main + grad_shortcut


class ResNet(Module):
    """Configurable ResNet; ``ResNet.resnet50()`` builds the paper variant."""

    def __init__(
        self,
        block_type: type,
        stage_blocks: List[int],
        num_classes: int = 10,
        in_channels: int = 3,
        base_width: int = 64,
        use_imagenet_stem: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.num_classes = int(num_classes)
        rng = rng or default_rng()

        if use_imagenet_stem:
            self.stem = Sequential(
                Conv2d(in_channels, base_width, 7, stride=2, padding=3, bias=False, rng=rng),
                BatchNorm2d(base_width),
                ReLU(),
                MaxPool2d(3, stride=2, padding=1),
            )
        else:
            self.stem = Sequential(
                Conv2d(in_channels, base_width, 3, stride=1, padding=1, bias=False, rng=rng),
                BatchNorm2d(base_width),
                ReLU(),
            )

        stages: List[Module] = []
        channels = base_width
        in_planes = base_width
        for stage_index, blocks in enumerate(stage_blocks):
            stride = 1 if stage_index == 0 else 2
            for block_index in range(blocks):
                block = block_type(
                    in_planes, channels, stride if block_index == 0 else 1, rng=rng
                )
                stages.append(block)
                in_planes = channels * block_type.expansion
            channels *= 2
        self.stages = Sequential(*stages)
        self.head = Sequential(GlobalAvgPool2d(), Flatten(), Linear(in_planes, num_classes, rng=rng))

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.head(self.stages(self.stem(inputs)))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.stem.backward(self.stages.backward(self.head.backward(grad_output)))

    # ------------------------------------------------------------------
    # Named constructors
    # ------------------------------------------------------------------
    @classmethod
    def resnet50(cls, num_classes: int = 10, in_channels: int = 3, rng=None) -> "ResNet":
        """Standard ResNet-50 (the paper-scale variant)."""
        return cls(Bottleneck, [3, 4, 6, 3], num_classes, in_channels, base_width=64, rng=rng)

    @classmethod
    def resnet18(cls, num_classes: int = 10, in_channels: int = 3, rng=None) -> "ResNet":
        """Standard ResNet-18, provided as an intermediate-size helper."""
        return cls(BasicBlock, [2, 2, 2, 2], num_classes, in_channels, base_width=64, rng=rng)

    @classmethod
    def tiny(cls, num_classes: int = 10, in_channels: int = 3, rng=None) -> "ResNet":
        """Small basic-block ResNet for numpy-speed federated training."""
        return cls(
            BasicBlock,
            [1, 1],
            num_classes,
            in_channels,
            base_width=16,
            use_imagenet_stem=False,
            rng=rng,
        )
