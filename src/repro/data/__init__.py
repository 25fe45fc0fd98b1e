"""Datasets, client partitioning and batch loading.

Synthetic stand-ins for CIFAR-10 / Fashion-MNIST / Caltech101 (the offline
environment cannot download the originals), Miranda-like scientific fields
for the Figure 2 characterisation, IID and Dirichlet non-IID partitioners,
and a minimal mini-batch loader.
"""

from repro.data.datasets import (
    PAPER_DATASET_SPECS,
    PAPER_DATASETS,
    DatasetSpec,
    SyntheticImageDataset,
    dataset_spec,
    load_dataset,
    make_synthetic_dataset,
)
from repro.data.loader import DataLoader
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    partition_dataset,
)
from repro.data.scientific import miranda_like_slice, smoothness_score

__all__ = [
    "PAPER_DATASET_SPECS",
    "PAPER_DATASETS",
    "DatasetSpec",
    "SyntheticImageDataset",
    "dataset_spec",
    "load_dataset",
    "make_synthetic_dataset",
    "DataLoader",
    "dirichlet_partition",
    "iid_partition",
    "partition_dataset",
    "miranda_like_slice",
    "smoothness_score",
]
