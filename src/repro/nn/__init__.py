"""Pure-numpy neural-network substrate (the PyTorch stand-in).

Provides the ``Module`` / ``Parameter`` / ``state_dict`` surface the FedSZ
pipeline compresses, the layers needed by AlexNet / MobileNetV2 / ResNet, a
cross-entropy loss, SGD, and model profiling utilities.  Forwards that only
evaluate run under :func:`inference`, which keeps no backward cache.
"""

from repro.nn import functional
from repro.nn.flops import ModelProfile, count_flops, count_parameters, lossy_fraction, profile_model
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
    Sequential,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module, inference
from repro.nn.optim import SGD
from repro.nn.parameter import Parameter

__all__ = [
    "functional",
    "ModelProfile",
    "count_flops",
    "count_parameters",
    "lossy_fraction",
    "profile_model",
    "BatchNorm2d",
    "Conv2d",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "ReLU6",
    "Sequential",
    "CrossEntropyLoss",
    "Module",
    "inference",
    "SGD",
    "Parameter",
]
