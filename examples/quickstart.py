#!/usr/bin/env python
"""Quickstart: compress a model update with FedSZ and inspect the savings.

This is the smallest end-to-end use of the library:

1. build a model with the bundled pure-numpy substrate (any object exposing a
   PyTorch-style ``state_dict()`` of numpy arrays works the same way);
2. compress its state dict with :class:`repro.core.FedSZCompressor` at the
   paper's recommended relative error bound of 1e-2;
3. decompress, verify the error-bound contract, and check whether the
   compression is worth it on a constrained (10 Mbps) uplink.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import FedSZCompressor
from repro.nn.models import create_model
from repro.utils.sizes import format_bytes


def main() -> None:
    print("=== FedSZ quickstart ===")
    model = create_model("mobilenetv2", "tiny", num_classes=10, seed=0)
    state_dict = model.state_dict()
    original_nbytes = sum(v.nbytes for v in state_dict.values())
    print(f"model: tiny MobileNetV2, state dict of {len(state_dict)} tensors, "
          f"{format_bytes(original_nbytes)}")

    codec = FedSZCompressor(error_bound=1e-2)  # SZ2 + blosc-lz, REL 1e-2
    payload = codec.compress(state_dict)
    report = codec.report()
    print(f"compressed payload: {format_bytes(len(payload))} "
          f"({report.ratio:.2f}x smaller, "
          f"{report.lossy_tensor_count} lossy / {report.lossless_tensor_count} lossless tensors)")

    restored = codec.decompress(payload)
    worst_relative_error = 0.0
    for name, tensor in state_dict.items():
        if name in report.per_tensor_ratio:  # lossy-compressed tensors
            value_range = float(tensor.max() - tensor.min())
            if value_range > 0:
                error = float(np.max(np.abs(restored[name] - tensor))) / value_range
                worst_relative_error = max(worst_relative_error, error)
        else:
            assert np.array_equal(restored[name], tensor), f"lossless tensor {name} changed"
    print(f"worst relative reconstruction error on lossy tensors: {worst_relative_error:.4f} "
          "(bound: 0.0100)")

    decision = codec.is_worthwhile(bandwidth_mbps=10.0)
    print(f"on a 10 Mbps uplink: {decision.uncompressed_transfer_seconds:.2f}s uncompressed vs "
          f"{decision.total_seconds:.2f}s with FedSZ "
          f"-> {'compress' if decision.worthwhile else 'send raw'} "
          f"({decision.speedup:.1f}x faster)")


if __name__ == "__main__":
    main()
