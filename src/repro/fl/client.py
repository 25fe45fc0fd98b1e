"""Federated client: local SGD on private data.

A client owns its dataset, its mini-batch shuffle stream and — when it has
trained at least once — the random-stream states of the model's stochastic
layers (Dropout).  It does **not** necessarily own a model: when constructed
with a :class:`~repro.fl.state.ModelPool` (the fleet-scale runtime path), a
model is borrowed from the pool only for the duration of each training or
evaluation call, so resident models stay bounded by the pool size instead of
the fleet size.  Without a pool the client lazily builds and keeps a private
model on first use, which matches the original eager behaviour bit for bit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional

import numpy as np

from repro.data.datasets import SyntheticImageDataset
from repro.data.loader import DataLoader
from repro.fl.config import FLConfig
from repro.fl.server import evaluate_model
from repro.fl.state import (
    ModelPool,
    capture_stochastic_state,
    restore_stochastic_state,
)
from repro.nn import functional as F
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import SGD


@dataclass
class ClientUpdate:
    """What a client sends back to the server after local training."""

    client_id: int
    state_dict: Dict[str, np.ndarray]
    num_samples: int
    train_loss: float
    train_accuracy: float
    train_seconds: float


class FLClient:
    """One federated participant with a private dataset and (possibly pooled)
    local model."""

    def __init__(
        self,
        client_id: int,
        model_fn: Callable[[], Module],
        dataset: SyntheticImageDataset,
        config: FLConfig,
        seed: int = 0,
        model_pool: Optional[ModelPool] = None,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} received an empty dataset")
        self.client_id = int(client_id)
        self.dataset = dataset
        self.config = config
        self._model_fn = model_fn
        self._pool = model_pool
        self._own_model: Optional[Module] = None
        #: Saved bit-generator states of the model's stochastic layers, so a
        #: pooled (shared) model behaves exactly like a private one: each
        #: client's Dropout stream advances only with that client's training.
        self._stochastic_states: Optional[list] = None
        self.loader = DataLoader(
            dataset,
            batch_size=config.batch_size,
            shuffle=True,
            seed=seed,
        )
        self._loss = CrossEntropyLoss()

    @property
    def num_samples(self) -> int:
        """Number of local training samples (the FedAvg weight)."""
        return len(self.dataset)

    @property
    def model(self) -> Module:
        """The client's private model (pool-less clients only).

        Pooled clients have no resident model between rounds — that is the
        point of the fleet-scale runtime — so accessing this raises.
        """
        if self._pool is not None:
            raise AttributeError(
                f"client {self.client_id} borrows models from a pool and holds "
                "none between rounds; use train()/evaluate() instead"
            )
        if self._own_model is None:
            self._own_model = self._model_fn()
        return self._own_model

    @contextmanager
    def _borrow_model(self) -> Iterator[Module]:
        """Yield a model carrying this client's stochastic-layer streams."""
        if self._pool is None:
            yield self.model
            return
        with self._pool.borrow() as model:
            states = (
                self._stochastic_states
                if self._stochastic_states is not None
                else self._pool.pristine_states
            )
            restore_stochastic_state(model, states)
            try:
                yield model
            finally:
                self._stochastic_states = capture_stochastic_state(model)

    def train(
        self,
        global_state: Mapping[str, np.ndarray],
        learning_rate: float | None = None,
    ) -> ClientUpdate:
        """Run the configured number of local epochs starting from ``global_state``.

        ``learning_rate`` overrides the configured rate for this round (used by
        the per-round decay schedule).
        """
        with self._borrow_model() as model:
            # Timer starts once a model is in hand: lazy construction or a
            # wait for a pool slot is setup cost, not local-training time —
            # the eager implementation paid it at init, outside this window.
            start = time.perf_counter()
            model.load_state_dict(dict(global_state))
            model.train()
            optimizer = SGD(
                model.parameters(),
                lr=learning_rate if learning_rate is not None else self.config.learning_rate,
                momentum=self.config.momentum,
                weight_decay=self.config.weight_decay,
            )

            total_loss = 0.0
            total_correct = 0.0
            total_seen = 0
            for _ in range(self.config.local_epochs):
                for images, labels in self.loader:
                    optimizer.zero_grad()
                    logits = model(images)
                    loss = self._loss(logits, labels)
                    model.backward(self._loss.backward())
                    optimizer.step()
                    batch = labels.shape[0]
                    total_loss += loss * batch
                    total_correct += F.accuracy(logits, labels) * batch
                    total_seen += batch

            state_dict = model.state_dict()
            elapsed = time.perf_counter() - start
        return ClientUpdate(
            client_id=self.client_id,
            state_dict=state_dict,
            num_samples=self.num_samples,
            train_loss=total_loss / max(total_seen, 1),
            train_accuracy=total_correct / max(total_seen, 1),
            train_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Snapshot this client's advancing streams for a run checkpoint.

        Two streams move during training and must survive a crash for resume
        to be bit-identical: the mini-batch shuffle generator (advances once
        per epoch) and the model's stochastic-layer streams (Dropout; held in
        ``_stochastic_states`` for pooled clients, inside the private model
        otherwise).  Parameters are *not* captured here — the broadcast state
        overwrites them wholesale at the start of every round.
        """
        if self._pool is not None:
            stochastic = (
                list(self._stochastic_states)
                if self._stochastic_states is not None
                else None
            )
        elif self._own_model is not None:
            stochastic = capture_stochastic_state(self._own_model)
        else:
            stochastic = None
        return {
            "loader_rng": self.loader.get_rng_state(),
            "stochastic": stochastic,
        }

    def restore_checkpoint_state(self, state: Mapping) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self.loader.set_rng_state(state["loader_rng"])
        stochastic = state.get("stochastic")
        if self._pool is not None:
            self._stochastic_states = list(stochastic) if stochastic is not None else None
        elif stochastic is not None:
            restore_stochastic_state(self.model, stochastic)

    def evaluate(self, state_dict: Mapping[str, np.ndarray]) -> Dict[str, float]:
        """Evaluate a state dict on this client's local data (no training).

        The server's routine, :func:`~repro.fl.server.evaluate_model`, in
        batches of ``config.eval_batch_size``: a dataset that fits one batch
        gives exactly the one-shot result.  Pool lanes past the borrowed model
        run on copies made for this call only; inside an executor's workers
        the pass is serial.
        """
        with self._borrow_model() as model:
            model.load_state_dict(dict(state_dict))
            loss, accuracy = evaluate_model(
                model, self.dataset.images, self.dataset.labels, self.config.eval_batch_size
            )
        return {"loss": loss, "accuracy": accuracy, "num_samples": float(len(self.dataset))}
