"""A sequence whose items are built on first access: a 100k-client fleet names
every client but only a few hundred ever act, so per-client state (data shard,
seed, client object) is derived from its index on demand."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, List


class LazySequence(Sequence):
    """Immutable sequence of ``build(i)`` for ``i in range(length)``.

    ``len``, indexing, slicing, iteration and ``==`` behave like a list's;
    ``build`` runs the first time an index is read and the item is cached, so
    it must be a pure function of the index for the items to equal those of
    the eagerly built list.
    """

    def __init__(self, length: int, build: Callable[[int], object]) -> None:
        self._length = int(length)
        self._build = build
        self._items: dict = {}

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        index = int(index)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range for {self._length} items")
        if index not in self._items:
            self._items[index] = self._build(index)
        return self._items[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(other) == self._length and all(a == b for a, b in zip(self, other, strict=True))

    @property
    def materialized_count(self) -> int:
        """How many items have been built so far."""
        return len(self._items)

    def materialized_items(self) -> List[tuple]:
        """``(index, item)`` for every item built so far, in index order."""
        return sorted(self._items.items())
