"""Mini-batch iteration over in-memory datasets."""

from __future__ import annotations

from typing import Iterator, Mapping, Tuple

import numpy as np

from repro.data.datasets import SyntheticImageDataset


class DataLoader:
    """Batched (optionally shuffled) iteration over a dataset.

    Iterating twice yields different shuffles when ``shuffle=True`` (a fresh
    permutation per epoch), but the sequence of permutations is fully
    determined by the seed, keeping federated runs reproducible.
    """

    def __init__(
        self,
        dataset: SyntheticImageDataset,
        batch_size: int = 32,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.drop_last = bool(drop_last)
        self._rng = np.random.default_rng(seed)

    def get_rng_state(self) -> dict:
        """Snapshot the shuffle stream (advances once per shuffled epoch).

        The public accessor pair (`get`/`set`) exists for checkpointing:
        callers persist the state and later hand it back to
        :meth:`set_rng_state`, restoring the exact sequence of future epoch
        permutations without reaching into the private generator.
        """
        return self._rng.bit_generator.state

    def set_rng_state(self, state: Mapping) -> None:
        """Restore a shuffle-stream snapshot taken by :meth:`get_rng_state`."""
        self._rng.bit_generator.state = dict(state)

    def __len__(self) -> int:
        full, remainder = divmod(len(self.dataset), self.batch_size)
        if remainder and not self.drop_last:
            return full + 1
        return full

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            batch = order[start : start + self.batch_size]
            if batch.size < self.batch_size and self.drop_last:
                return
            yield self.dataset[batch]
