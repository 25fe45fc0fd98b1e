"""Lazy client state for fleet-scale federated simulations.

The seed runtime built one :class:`~repro.fl.client.FLClient` — each holding
its **own full model** — for every configured client, so memory and setup
time grew as O(num_clients × model params) even when ``client_fraction``
meant most clients never trained in a given round.  This module provides the
two pieces that break that coupling:

* :class:`ModelPool` — a free list of reusable model instances.  A client
  *borrows* a model for the duration of one local training run (load the
  broadcast state in, train, export the update) and returns it.  Every
  process trains on one thread, so one resident model per process serves the
  whole fleet instead of O(num_clients).
* :class:`ClientRegistry` — a sequence of lazily materialised
  :class:`FLClient` objects.  Client objects themselves are cheap (a dataset
  reference, a data loader, a few seeds) and are only created when first
  accessed, which for sub-sampled fleets means most clients are never built
  at all.

Bit-identity with the eager per-client-model implementation is preserved by
persisting each client's *stochastic layer streams* (e.g. per-``Dropout``
RNGs) in the client, not in the shared model: before a borrowed model trains,
the client's saved generator states are restored into the model's stochastic
modules; after training the advanced states are captured back.  A client that
has never trained starts from the pool's *pristine* states — the states a
freshly constructed model carries — exactly as if it owned a private model.
Parameters and buffers need no such treatment because ``load_state_dict``
overwrites them wholesale at the start of every training run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.nn.module import Module
from repro.utils.lazy import LazySequence


def stochastic_modules(model: Module) -> List[Module]:
    """Modules carrying a private random stream (e.g. ``Dropout``), in
    deterministic tree order.

    Found once per layout of the model's tree (the walk that flattens it), so
    a module registered anywhere is seen on the next call.
    """
    return list(model._layout().stochastic)


def capture_stochastic_state(model: Module) -> List[dict]:
    """Snapshot the bit-generator state of every stochastic module."""
    return [module._rng.bit_generator.state for module in model._layout().stochastic]


def restore_stochastic_state(model: Module, states: Sequence[dict]) -> None:
    """Restore previously captured stochastic-module states into ``model``."""
    modules = model._layout().stochastic
    if len(modules) != len(states):
        raise ValueError(
            f"model has {len(modules)} stochastic modules but {len(states)} "
            "states were captured; was the model function changed mid-run?"
        )
    for module, state in zip(modules, states, strict=True):
        module._rng.bit_generator.state = state


class ModelPool:
    """Free list of reusable model instances.

    ``acquire`` hands out a free model and constructs one only when none is
    free.  Training runs on one thread per process (the serial executor's
    caller, or one worker process each), so a pool builds one model whatever
    the fleet size; ``created`` / ``in_use`` / ``peak_in_use`` instrument that
    claim for the fleet tests.
    """

    def __init__(self, model_fn: Callable[[], Module]) -> None:
        self._model_fn = model_fn
        self._free: List[Module] = []
        #: Total model instances constructed so far (= peak residency).
        self.created = 0
        #: Models currently borrowed.
        self.in_use = 0
        #: Most models simultaneously borrowed over the pool's lifetime.
        self.peak_in_use = 0
        self._pristine_states: Optional[List[dict]] = None

    @property
    def pristine_states(self) -> List[dict]:
        """Stochastic-module states of a freshly constructed model.

        Captured from the first model the pool builds; because model
        factories are deterministic (seeded weight init and layer RNGs),
        every construction starts from these same states.
        """
        if self._pristine_states is None:
            # Force one construction so first-time borrowers have a reference.
            self.release(self.acquire())
        return list(self._pristine_states)

    def acquire(self) -> Module:
        """Borrow a free model, building one if none is free."""
        if self._free:
            model = self._free.pop()
        else:
            model = self._model_fn()
            self.created += 1
            if self._pristine_states is None:
                self._pristine_states = capture_stochastic_state(model)
        self.in_use += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return model

    def release(self, model: Module) -> None:
        """Return a borrowed model to the pool."""
        self.in_use -= 1
        self._free.append(model)

    @contextmanager
    def borrow(self) -> Iterator[Module]:
        """``with pool.borrow() as model:`` acquire/release bracket."""
        model = self.acquire()
        try:
            yield model
        finally:
            self.release(model)


class ClientRegistry(LazySequence):
    """Lazily materialised client population.

    Behaves like an immutable list of :class:`FLClient`: ``len``, indexing,
    iteration and ``list(...)`` all work, but a client object is only
    constructed the first time it is accessed (and then cached).  All clients
    share one :class:`ModelPool`, so materialising a client does **not**
    build a model — only its data loader and bookkeeping.

    ``datasets`` and ``seeds`` are read at a client's index when it is built
    and never copied: lazy ones (``partition_dataset``'s shards, a
    ``SeedSequenceFactory.spawn`` block) cut a shard and derive a seed for the
    materialised clients only.  Both are pure functions of the index, so a
    client is the same whenever it is first touched — which is also why
    checkpointing iterates ``materialized_items()`` only: a client that never
    ran has advanced no stream, and rebuilding it after resume is bit-identical.
    """

    def __init__(
        self,
        model_fn: Callable[[], Module],
        datasets: Sequence,
        config,
        seeds: Sequence[int],
        model_pool: ModelPool,
    ) -> None:
        from repro.fl.client import FLClient

        if len(datasets) != len(seeds):
            raise ValueError(
                f"got {len(datasets)} client datasets but {len(seeds)} seeds"
            )
        sizes = getattr(datasets, "sizes", None)
        if sizes is None:  # already-cut datasets: their lengths are free
            sizes = np.fromiter(map(len, datasets), dtype=np.int64, count=len(datasets))
        if not np.all(sizes):
            raise ValueError(f"client {int(np.argmin(sizes))} received an empty dataset")
        # A closure, not a bound method: a registry that references itself
        # keeps a dropped runtime's datasets resident until a cycle collection.
        super().__init__(
            len(datasets),
            lambda index: FLClient(
                index, model_fn, datasets[index], config, int(seeds[index]), model_pool
            ),
        )
        self._model_fn = model_fn
        self.datasets = datasets
        self._config = config
        self.seeds = seeds
        self.model_pool = model_pool


__all__ = [
    "ModelPool",
    "ClientRegistry",
    "stochastic_modules",
    "capture_stochastic_state",
    "restore_stochastic_state",
]
