"""State-dict partitioning (Algorithm 1, lines 2–8).

FedSZ splits a client update — the model ``state_dict()`` — into

* the **lossy partition**: large floating-point *weight* tensors, which
  dominate the update size and tolerate bounded error, and
* the **lossless partition**: everything else — biases, BatchNorm scale/shift
  and running statistics, integer counters and any weight tensor smaller than
  the threshold — whose exact values are cheap to keep and risky to perturb.

The rule is exactly the paper's: a tensor goes lossy when its name contains
``"weight"``, it is floating point, and its flattened size exceeds the
``threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

import numpy as np

from repro.core.config import DEFAULT_PARTITION_THRESHOLD


def is_lossy_eligible(name: str, tensor: np.ndarray, threshold: int = DEFAULT_PARTITION_THRESHOLD) -> bool:
    """Algorithm 1's predicate for routing a tensor to the lossy path."""
    tensor = np.asarray(tensor)
    return "weight" in name and tensor.dtype.kind == "f" and tensor.size > threshold


@dataclass
class StateDictPartition:
    """The two halves of a partitioned state dict, with bookkeeping."""

    lossy: Dict[str, np.ndarray] = field(default_factory=dict)
    lossless: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def lossy_nbytes(self) -> int:
        """Raw byte footprint of the lossy partition."""
        return int(sum(np.asarray(v).nbytes for v in self.lossy.values()))

    @property
    def lossless_nbytes(self) -> int:
        """Raw byte footprint of the lossless partition."""
        return int(sum(np.asarray(v).nbytes for v in self.lossless.values()))

    @property
    def total_nbytes(self) -> int:
        """Raw byte footprint of the whole state dict."""
        return self.lossy_nbytes + self.lossless_nbytes

    @property
    def lossy_fraction(self) -> float:
        """Share of bytes eligible for lossy compression (Table III's column)."""
        total = self.total_nbytes
        if total == 0:
            return 0.0
        return self.lossy_nbytes / total

    def merged(self) -> Dict[str, np.ndarray]:
        """Recombine both partitions into a single mapping."""
        combined: Dict[str, np.ndarray] = {}
        combined.update(self.lossy)
        combined.update(self.lossless)
        return combined


def partition_state_dict(
    state_dict: Mapping[str, np.ndarray],
    threshold: int = DEFAULT_PARTITION_THRESHOLD,
) -> StateDictPartition:
    """Split ``state_dict`` into lossy / lossless partitions (Algorithm 1)."""
    partition = StateDictPartition()
    for name, tensor in state_dict.items():
        tensor = np.asarray(tensor)
        if is_lossy_eligible(name, tensor, threshold):
            partition.lossy[name] = tensor
        else:
            partition.lossless[name] = tensor
    return partition
