"""Federated server: global model, aggregation and validation."""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import SyntheticImageDataset
from repro.fl.aggregation import fedavg
from repro.nn import functional as F
from repro.nn.module import Module, inference
from repro.utils.pools import pool_width, run_lanes


@dataclass
class EvaluationResult:
    """Global-model validation metrics."""

    loss: float
    accuracy: float
    num_samples: int
    seconds: float


def evaluate_model(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    replicas: Optional[List[Module]] = None,
) -> Tuple[float, float]:
    """Loss and top-1 accuracy of ``model``, in eval mode, on ``images``.

    The forward pass runs in batches of ``batch_size`` rows under
    :func:`~repro.nn.inference` (entered by every lane), so no layer keeps its
    activations: peak memory is one layer's working set on one batch, and no
    model or replica holds a cache afterwards.  Loss and accuracy are taken
    once over the logits concatenated in batch order.
    Where :func:`~repro.utils.pools.pool_width` allows, contiguous runs of
    batches go to :func:`~repro.utils.pools.run_lanes`: lane 0, the caller,
    runs on ``model``, every other lane on a replica — a deep copy of
    ``model`` kept in ``replicas`` (grown as needed; ``None`` keeps them for
    this call only), loaded with ``model``'s state.  A batch's logits do not depend on its lane, so the result is the
    same at any width, and a failing batch raises what the serial loop raises.
    """
    if not len(labels):
        return 0.0, 0.0
    starts = range(0, len(labels), batch_size)
    lanes = pool_width(len(starts))
    model.eval()

    def forward(lane_model: Module, lane_starts) -> List[np.ndarray]:
        with inference():
            return [lane_model(images[start : start + batch_size]) for start in lane_starts]

    replicas = [] if replicas is None else replicas
    replicas.extend(copy.deepcopy(model) for _ in range(lanes - 1 - len(replicas)))
    models = [model, *replicas[: lanes - 1]]
    for replica in models[1:]:
        replica.load_state_dict(model.state_dict())
    runs = np.array_split(np.asarray(starts), lanes)
    outputs = run_lanes(runs, forward, lanes, models.__getitem__)
    chunks = [chunk for output in outputs for chunk in output]
    logits = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)
    loss, _ = F.cross_entropy(logits, np.asarray(labels, dtype=np.int64))
    return loss, F.accuracy(logits, labels)


class FLServer:
    """Holds the global model, aggregates client updates, validates."""

    def __init__(
        self,
        model_fn: Callable[[], Module],
        validation_dataset: Optional[SyntheticImageDataset] = None,
        eval_batch_size: int = 64,
    ) -> None:
        self.model = model_fn()
        self.validation_dataset = validation_dataset
        self.eval_batch_size = int(eval_batch_size)
        #: The evaluation pool's replicas of ``model``, built on first use.
        self._replicas: List[Module] = []

    def global_state(self) -> Dict[str, np.ndarray]:
        """Snapshot of the current global model."""
        return self.model.state_dict()

    def set_global_state(self, state_dict: Mapping[str, np.ndarray]) -> None:
        """Overwrite the global model (e.g. with an aggregated state)."""
        self.model.load_state_dict(dict(state_dict))

    def aggregate(
        self,
        client_states: Sequence[Mapping[str, np.ndarray]],
        client_weights: Optional[Sequence[float]] = None,
    ) -> Dict[str, np.ndarray]:
        """FedAvg the client states and install the result as the new global model."""
        aggregated = fedavg(client_states, client_weights)
        self.set_global_state(aggregated)
        return aggregated

    def evaluate(self, dataset: Optional[SyntheticImageDataset] = None) -> EvaluationResult:
        """Evaluate the global model on the validation (or a supplied) dataset."""
        dataset = dataset or self.validation_dataset
        if dataset is None:
            raise ValueError("no validation dataset available for evaluation")
        start = time.perf_counter()
        loss, accuracy = evaluate_model(
            self.model, dataset.images, dataset.labels, self.eval_batch_size, self._replicas
        )
        return EvaluationResult(
            loss=loss,
            accuracy=accuracy,
            num_samples=len(dataset),
            seconds=time.perf_counter() - start,
        )
