"""Model profiling: parameter counts, state sizes and FLOPs estimates.

Table III of the FedSZ paper characterises each DNN by parameter count, state
size, the share of data eligible for lossy compression and FLOPs.  The
profiler here reproduces those columns for any model built on the
:mod:`repro.nn` substrate.

FLOPs are counted as multiply-accumulate pairs (2 × MACs) for convolutions and
linear layers during one forward pass of a single sample, which is the
convention the usual PyTorch profilers (and the paper's numbers) follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module, inference


@dataclass(frozen=True)
class ModelProfile:
    """Summary statistics for one model."""

    name: str
    parameter_count: int
    state_nbytes: int
    lossy_fraction: float
    flops: float

    def as_row(self) -> Dict[str, object]:
        """Row representation matching Table III's columns."""
        return {
            "model": self.name,
            "parameters": self.parameter_count,
            "size_mb": self.state_nbytes / 1e6,
            "lossy_data_percent": 100.0 * self.lossy_fraction,
            "flops_g": self.flops / 1e9,
        }


def count_parameters(model: Module) -> int:
    """Total number of trainable parameters."""
    return model.num_parameters()


def lossy_fraction(model: Module, threshold: int = 1024) -> float:
    """Share of state-dict *bytes* that FedSZ would route to the lossy path.

    Algorithm 1 sends tensors whose name contains ``"weight"`` and whose
    flattened size exceeds ``threshold`` to the lossy compressor; everything
    else (biases, BatchNorm statistics, counters) stays lossless.
    """
    state = model.state_dict()
    total = sum(v.nbytes for v in state.values())
    if total == 0:
        return 0.0
    lossy = sum(
        v.nbytes
        for name, v in state.items()
        if "weight" in name and v.size > threshold and np.issubdtype(v.dtype, np.floating)
    )
    return lossy / total


def count_flops(model: Module, input_shape: Tuple[int, int, int]) -> float:
    """Estimate forward FLOPs for a single sample of ``input_shape`` (C, H, W).

    The model's convolution and linear ``forward`` methods are temporarily
    instrumented, a dummy forward pass is run in evaluation and inference mode, and the
    recorded input/output shapes are turned into FLOP counts.
    """
    records: list[float] = []
    patched: list[tuple[Module, object]] = []

    def _instrument(module: Module) -> None:
        original_forward = module.forward

        if isinstance(module, Conv2d):

            def counting_forward(inputs, _module=module, _original=original_forward):
                output = _original(inputs)
                out_positions = output.shape[2] * output.shape[3]
                kernel_ops = (
                    _module.kernel_size
                    * _module.kernel_size
                    * (_module.in_channels // _module.groups)
                )
                macs = kernel_ops * _module.out_channels * out_positions
                records.append(2.0 * macs)
                return output

        else:  # Linear

            def counting_forward(inputs, _module=module, _original=original_forward):
                output = _original(inputs)
                macs = _module.in_features * _module.out_features
                records.append(2.0 * macs)
                return output

        object.__setattr__(module, "forward", counting_forward)
        patched.append((module, original_forward))

    for _, module in model.named_modules():
        if isinstance(module, (Conv2d, Linear)):
            _instrument(module)

    was_training = model.training
    model.eval()
    try:
        dummy = np.zeros((1, *input_shape), dtype=np.float32)
        with inference():
            model(dummy)
    finally:
        for module, original in patched:
            object.__setattr__(module, "forward", original)
        model.train(was_training)
    return float(sum(records))


def profile_model(
    model: Module,
    name: str,
    input_shape: Tuple[int, int, int],
    threshold: int = 1024,
) -> ModelProfile:
    """Build the full Table III row for ``model``."""
    return ModelProfile(
        name=name,
        parameter_count=count_parameters(model),
        state_nbytes=model.state_nbytes(),
        lossy_fraction=lossy_fraction(model, threshold),
        flops=count_flops(model, input_shape),
    )
