"""Deterministic random-number management.

Every stochastic component in the reproduction (dataset synthesis, weight
initialisation, client sampling, SGD mini-batch shuffling) draws randomness
through this module so that experiments are bit-reproducible across runs.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from repro.utils.lazy import LazySequence

_GLOBAL_SEED: Optional[int] = None


def set_global_seed(seed: int) -> None:
    """Seed Python's and numpy's legacy global generators.

    The library itself only uses :func:`default_rng` generators, but user code
    and tests may still rely on the global state; seeding both keeps every
    entry point deterministic.
    """
    global _GLOBAL_SEED
    _GLOBAL_SEED = int(seed)
    # The one sanctioned use of the global generators: seeding them.
    random.seed(seed)
    np.random.seed(seed % (2**32))


def default_rng(seed: Optional[int] = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator`.

    When ``seed`` is ``None`` the last global seed is used (if one was set) so
    that "unseeded" helpers still participate in reproducible runs.
    """
    if seed is None:
        seed = _GLOBAL_SEED
    return np.random.default_rng(seed)


class SeedSequenceFactory:
    """Hand out independent child seeds derived from a single root seed.

    Federated simulations need many independent streams (one per client, one
    per round, one for the server).  Deriving them from a
    :class:`numpy.random.SeedSequence` guarantees independence without having
    to invent ad-hoc offsets.
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._spawned = 0

    def next_seed(self) -> int:
        """Return the next derived 32-bit seed."""
        self._spawned += 1
        return self.seed_at(self._spawned - 1)

    def seed_at(self, index: int) -> int:
        """The seed :meth:`next_seed` would return on its ``index``-th call.

        ``SeedSequence.spawn`` derives child ``i`` purely from the root seed
        and the spawn key ``(i,)``, so the ``i``-th sequential seed can be
        computed directly — random access for consumers (e.g. lazily
        materialised transport links) that must match an eagerly seeded
        population bit for bit without deriving every earlier seed first.
        """
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        child = np.random.SeedSequence(self.root_seed, spawn_key=(int(index),))
        return int(child.generate_state(1, dtype=np.uint32)[0])

    def next_rng(self) -> np.random.Generator:
        """Return a generator seeded with :meth:`next_seed`."""
        return np.random.default_rng(self.next_seed())

    def spawn(self, count: int) -> LazySequence:
        """The seeds the next ``count`` calls of :meth:`next_seed` would return.

        The block is claimed at once (:meth:`next_seed` continues after it) but
        each seed is computed, by :meth:`seed_at`, when first read — a
        100k-client fleet derives only the seeds of the clients that run.
        """
        start = self._spawned
        self._spawned += int(count)
        return LazySequence(count, lambda offset: self.seed_at(start + offset))

    @property
    def spawned(self) -> int:
        """Number of seeds handed out so far."""
        return self._spawned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedSequenceFactory(root_seed={self.root_seed}, spawned={self._spawned})"
