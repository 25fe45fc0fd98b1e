"""Client data partitioning for federated simulations.

FedAvg experiments in the paper use four clients with local data.  The
partitioners here split a dataset into per-client index sets either IID
(uniform random) or non-IID (Dirichlet label skew, the standard benchmark
protocol), so the federated runtime can exercise both regimes.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.data.datasets import SyntheticImageDataset
from repro.utils.lazy import LazySequence


class ClientShards(LazySequence):
    """Per-client datasets over one parent dataset, cut on first access.

    Shard ``i`` is ``dataset.subset(index_sets[i])``, the call an eager
    partition makes for every client, so a fleet pays for the shards of the
    clients that train; ``sizes`` has every client's sample count uncut.
    """

    def __init__(self, dataset: SyntheticImageDataset, index_sets: Sequence[np.ndarray]) -> None:
        super().__init__(len(index_sets), lambda client_id: dataset.subset(index_sets[client_id]))
        if isinstance(index_sets, BlockRows):
            self.sizes = index_sets.sizes
        else:
            self.sizes = np.fromiter(map(len, index_sets), dtype=np.int64, count=len(index_sets))


class BlockRows(LazySequence):
    """The rows of ``head`` then those of ``tail`` (2-D blocks), each a view
    made on first access; ``sizes`` (every row's length) comes from the two
    block shapes."""

    def __init__(self, head: np.ndarray, tail: np.ndarray) -> None:
        def row(index: int) -> np.ndarray:
            return head[index] if index < len(head) else tail[index - len(head)]

        super().__init__(len(head) + len(tail), row)
        self.sizes = np.repeat(
            np.array([head.shape[1], tail.shape[1]], dtype=np.int64), [len(head), len(tail)]
        )


def iid_partition(
    dataset: SyntheticImageDataset, num_clients: int, seed: int = 0
) -> BlockRows:
    """Uniformly random, equally sized client splits.

    One permutation, cut as ``numpy.array_split`` cuts it (the first ``n % k``
    clients get one sample more), each client's ids sorted: the two size
    classes are two 2-D blocks sorted along their rows, and client ``i``'s
    index set is row ``i`` of the two, so no per-client object is made up front.
    """
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    if len(dataset) < num_clients:
        raise ValueError(
            f"cannot split {len(dataset)} samples across {num_clients} clients"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    size, larger = divmod(len(dataset), num_clients)
    cut = larger * (size + 1)
    head = np.sort(order[:cut].reshape(larger, size + 1), axis=1)
    tail = np.sort(order[cut:].reshape(num_clients - larger, size), axis=1)
    return BlockRows(head, tail)


def dirichlet_partition(
    dataset: SyntheticImageDataset,
    num_clients: int,
    alpha: float = 0.5,
    seed: int = 0,
    min_samples_per_client: int = 2,
) -> List[np.ndarray]:
    """Label-skewed splits drawn from a Dirichlet(α) distribution per class.

    Smaller ``alpha`` produces more heterogeneous clients.  The partitioner
    retries until every client holds at least ``min_samples_per_client``
    samples so that local training is always possible.
    """
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = np.random.default_rng(seed)
    labels = dataset.labels
    for _ in range(100):
        client_indices: List[List[int]] = [[] for _ in range(num_clients)]
        for class_id in range(dataset.num_classes):
            class_positions = np.nonzero(labels == class_id)[0]
            if class_positions.size == 0:
                continue
            rng.shuffle(class_positions)
            proportions = rng.dirichlet([alpha] * num_clients)
            boundaries = (np.cumsum(proportions)[:-1] * class_positions.size).astype(int)
            for client_id, chunk in enumerate(np.split(class_positions, boundaries)):
                client_indices[client_id].extend(chunk.tolist())
        sizes = [len(indices) for indices in client_indices]
        if min(sizes) >= min_samples_per_client:
            return [np.sort(np.array(indices, dtype=np.int64)) for indices in client_indices]
    raise RuntimeError(
        "dirichlet_partition failed to produce a partition where every client "
        f"holds at least {min_samples_per_client} samples; increase alpha or the dataset size"
    )


def partition_dataset(
    dataset: SyntheticImageDataset,
    num_clients: int,
    strategy: str = "iid",
    alpha: float = 0.5,
    seed: int = 0,
) -> ClientShards:
    """Split a dataset into per-client datasets (:class:`ClientShards`: only
    the index sets are computed here) using the chosen strategy."""
    if strategy == "iid":
        index_sets = iid_partition(dataset, num_clients, seed)
    elif strategy == "dirichlet":
        index_sets = dirichlet_partition(dataset, num_clients, alpha=alpha, seed=seed)
    else:
        raise ValueError(f"unknown partition strategy {strategy!r}; expected 'iid' or 'dirichlet'")
    return ClientShards(dataset, index_sets)
