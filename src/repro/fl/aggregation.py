"""Model aggregation rules.

Federated Averaging (McMahan et al., 2017) is the aggregation rule used
throughout the paper: the server averages client state dicts weighted by
their local sample counts.  Buffers with integer dtypes (e.g. BatchNorm's
``num_batches_tracked``) are averaged and cast back, which matches what
PyTorch-based FL frameworks do in practice.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np


def fedavg(
    client_states: Sequence[Mapping[str, np.ndarray]],
    client_weights: Optional[Sequence[float]] = None,
) -> Dict[str, np.ndarray]:
    """Weighted average of client state dicts.

    Parameters
    ----------
    client_states:
        One state dict per participating client.  All must share exactly the
        same keys and shapes.
    client_weights:
        Aggregation weights, typically local dataset sizes.  Uniform when
        omitted.  They are normalised internally.
    """
    if not client_states:
        raise ValueError("fedavg requires at least one client state dict")
    if client_weights is None:
        client_weights = [1.0] * len(client_states)
    if len(client_weights) != len(client_states):
        raise ValueError(
            f"got {len(client_states)} state dicts but {len(client_weights)} weights"
        )
    weights = np.asarray(client_weights, dtype=np.float64)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("aggregation weights must be non-negative and not all zero")
    weights = weights / weights.sum()

    reference_keys = list(client_states[0].keys())
    for index, state in enumerate(client_states[1:], start=1):
        if list(state.keys()) != reference_keys:
            raise KeyError(f"client state dict #{index} keys differ from client #0")

    aggregated: Dict[str, np.ndarray] = {}
    for key in reference_keys:
        reference = np.asarray(client_states[0][key])
        # Each client's tensor is converted once, straight into its row;
        # ``stacked[i] = ...`` also fills the row of a 0-d buffer.
        stacked = np.empty((len(client_states), *reference.shape), dtype=np.float64)
        for index, state in enumerate(client_states):
            value = np.asarray(state[key])
            if value.shape != reference.shape:  # assignment would broadcast it
                raise ValueError(
                    f"client state dict #{index} has {key!r} of shape {value.shape}, "
                    f"client #0 {reference.shape}"
                )
            stacked[index] = value
        averaged = np.tensordot(weights, stacked, axes=1)
        if np.issubdtype(reference.dtype, np.integer):
            aggregated[key] = np.rint(averaged).astype(reference.dtype)
        else:
            aggregated[key] = averaged.astype(reference.dtype)
    return aggregated


def mix_states(
    base_state: Mapping[str, np.ndarray],
    update_state: Mapping[str, np.ndarray],
    weight: float,
) -> Dict[str, np.ndarray]:
    """Convex combination ``(1 - weight) * base + weight * update`` per tensor.

    The asynchronous scheduler applies one client update at a time with a
    staleness-dependent weight (FedAsync-style mixing).  Dtypes follow the
    same convention as :func:`fedavg`: float tensors keep their dtype, integer
    buffers are rounded back.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {weight}")
    mixed: Dict[str, np.ndarray] = {}
    for key, value in base_state.items():
        reference = np.asarray(value)
        blended = (1.0 - weight) * np.asarray(value, dtype=np.float64) + weight * np.asarray(
            update_state[key], dtype=np.float64
        )
        if np.issubdtype(reference.dtype, np.integer):
            mixed[key] = np.rint(blended).astype(reference.dtype)
        else:
            mixed[key] = blended.astype(reference.dtype)
    return mixed
