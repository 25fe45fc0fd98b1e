"""Synthetic image-classification datasets.

The paper evaluates on CIFAR-10, Fashion-MNIST and Caltech101 (Table IV).
Those datasets cannot be downloaded in this offline environment, so the
module provides deterministic synthetic stand-ins that preserve the
properties the experiments rely on:

* identical input dimensions and class counts (32×32×3 / 10, 28×28×1 / 10,
  224×224×3 / 101 — the Caltech substitute is also offered at a reduced
  resolution for the trainable tiny models);
* class structure that a convolutional network genuinely has to learn
  (class-conditional Gaussian prototypes with localised spatial structure and
  per-sample noise), so that accuracy is a meaningful, monotone casualty of
  weight corruption;
* per-client heterogeneity hooks via the partitioning utilities.

Every dataset is generated from an explicit seed, making federated runs
bit-reproducible.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a dataset (the columns of Table IV)."""

    name: str
    num_samples: int
    input_shape: Tuple[int, int, int]  # (channels, height, width)
    num_classes: int

    @property
    def input_dimension(self) -> str:
        """Human-readable spatial dimension, e.g. ``"32 x 32"``."""
        return f"{self.input_shape[1]} x {self.input_shape[2]}"

    def as_row(self) -> Dict[str, object]:
        """Row representation matching Table IV."""
        return {
            "dataset": self.name,
            "samples": self.num_samples,
            "input_dimension": self.input_dimension,
            "classes": self.num_classes,
        }


#: Paper-scale dataset characteristics (Table IV).
PAPER_DATASET_SPECS: Dict[str, DatasetSpec] = {
    "cifar10": DatasetSpec("CIFAR-10", 60_000, (3, 32, 32), 10),
    "fashion-mnist": DatasetSpec("Fashion-MNIST", 70_000, (1, 28, 28), 10),
    "caltech101": DatasetSpec("Caltech101", 9_000, (3, 224, 224), 101),
}

#: Datasets evaluated in the paper, in Table V column order.
PAPER_DATASETS = ("cifar10", "caltech101", "fashion-mnist")


class SyntheticImageDataset:
    """In-memory labelled image dataset with class-prototype structure.

    A side of :meth:`split` keeps no pixels of its own: its row ``i`` is row
    ``rows[i]`` of the parent's array, which both sides share.  Indexing
    (``dataset[batch]``, what :class:`~repro.data.loader.DataLoader` and
    :meth:`subset` read) gathers through that index; ``images`` gathers the
    side's rows once, keeps them and lets go of the parent's array.
    """

    def __init__(
        self,
        name: str,
        images: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
    ) -> None:
        if images.shape[0] != labels.shape[0]:
            raise ValueError(
                f"images and labels disagree on sample count: {images.shape[0]} vs {labels.shape[0]}"
            )
        self.name = name
        self._pixels = np.asarray(images, dtype=np.float32)
        #: Row ``i`` of this dataset is ``_pixels[_rows[i]]``; ``None`` when
        #: ``_pixels`` holds exactly this dataset's rows.
        self._rows: np.ndarray | None = None
        self.labels = np.asarray(labels, dtype=np.int64)
        self.num_classes = int(num_classes)

    @property
    def images(self) -> np.ndarray:
        """Every sample as one ``(N, C, H, W)`` float32 array."""
        if self._rows is not None:
            self._pixels, self._rows = self._pixels[self._rows], None
        return self._pixels

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        rows = index if self._rows is None else self._rows[index]
        return self._pixels[rows], self.labels[index]

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        """(channels, height, width) of one sample."""
        return tuple(self._pixels.shape[1:])

    def subset(self, indices: np.ndarray) -> "SyntheticImageDataset":
        """A dataset of the samples at ``indices`` (copied out)."""
        images, labels = self[np.asarray(indices, dtype=np.int64)]
        return SyntheticImageDataset(self.name, images, labels, self.num_classes)

    def _side(self, rows: np.ndarray) -> "SyntheticImageDataset":
        """The samples at ``rows``, sharing this dataset's pixel array."""
        side = copy.copy(self)
        side._rows = rows if self._rows is None else self._rows[rows]
        side.labels = self.labels[rows]
        return side

    def split(self, train_fraction: float, seed: int = 0) -> Tuple["SyntheticImageDataset", "SyntheticImageDataset"]:
        """Random train/validation split; both sides index this dataset's pixels.

        The sides partition the rows, so until one reads ``images`` they hold
        one array between them, as their two copies would; it is freed with
        the last side that still indexes it.
        """
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self))
        cut = int(round(train_fraction * len(self)))
        if cut in (0, len(self)):
            raise ValueError(
                f"splitting {len(self)} samples at {train_fraction} leaves an empty side: "
                f"{cut} train, {len(self) - cut} validation"
            )
        return self._side(order[:cut]), self._side(order[cut:])


def _generate_class_prototypes(
    rng: np.random.Generator,
    num_classes: int,
    input_shape: Tuple[int, int, int],
    prototype_scale: float,
) -> np.ndarray:
    """Smooth per-class prototype images with localised structure.

    Prototypes are low-frequency random fields (random coefficients on a small
    set of 2-D cosine bases), which gives each class a distinct spatial
    signature a convolution can pick up.
    """
    channels, height, width = input_shape
    y = np.linspace(0, np.pi, height)[:, None]
    x = np.linspace(0, np.pi, width)[None, :]
    bases = []
    for fy in range(3):
        for fx in range(3):
            bases.append(np.cos(fy * y) * np.cos(fx * x))
    bases = np.stack(bases)  # (9, H, W)
    coefficients = rng.normal(0.0, prototype_scale, size=(num_classes, channels, bases.shape[0]))
    prototypes = np.einsum("kcb,bhw->kchw", coefficients, bases)
    return prototypes.astype(np.float32)


_NOISE_SLAB_VALUES = 1 << 20  #: float64 noise values per ``rng.normal`` call


def make_synthetic_dataset(
    name: str,
    num_samples: int,
    input_shape: Tuple[int, int, int],
    num_classes: int,
    noise_scale: float = 0.6,
    prototype_scale: float = 1.0,
    seed: int = 0,
) -> SyntheticImageDataset:
    """Build a synthetic dataset with class-conditional Gaussian structure.

    Noise is drawn a slab of samples at a time and added straight into the one
    float32 image array, so no dataset-sized temporary is touched; consecutive
    ``rng.normal`` calls continue one stream, so the images are bit-equal to
    those of a single whole-dataset draw.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be at least 2, got {num_classes}")
    rng = np.random.default_rng(seed)
    prototypes = _generate_class_prototypes(rng, num_classes, input_shape, prototype_scale)
    labels = rng.integers(0, num_classes, size=num_samples)
    images = np.empty((num_samples, *input_shape), dtype=np.float32)
    slab = max(1, _NOISE_SLAB_VALUES // int(np.prod(input_shape)))
    for start in range(0, num_samples, slab):
        chunk = labels[start : start + slab]
        noise = rng.normal(0.0, noise_scale, size=(chunk.size, *input_shape))
        np.add(prototypes[chunk], noise.astype(np.float32), out=images[start : start + slab])
    return SyntheticImageDataset(name, images, labels, num_classes)


def load_dataset(
    name: str,
    num_samples: int = 2_000,
    image_size: int | None = None,
    noise_scale: float = 0.6,
    prototype_scale: float = 1.0,
    seed: int = 0,
) -> SyntheticImageDataset:
    """Load a synthetic stand-in for one of the paper's datasets.

    ``image_size`` optionally overrides the spatial resolution (the federated
    training experiments use 16×16 so the pure-numpy models stay fast); the
    channel count and class count always follow the real dataset.
    ``noise_scale`` and ``prototype_scale`` control task difficulty — a lower
    prototype scale shrinks the class margins so that accuracy is a sensitive
    function of weight perturbation, which the accuracy-versus-error-bound
    experiments rely on.
    """
    key = name.lower().replace("_", "-")
    if key not in PAPER_DATASET_SPECS:
        raise ValueError(f"unknown dataset {name!r}; available: {sorted(PAPER_DATASET_SPECS)}")
    spec = PAPER_DATASET_SPECS[key]
    channels, height, width = spec.input_shape
    if image_size is not None:
        height = width = int(image_size)
    return make_synthetic_dataset(
        name=spec.name,
        num_samples=num_samples,
        input_shape=(channels, height, width),
        num_classes=spec.num_classes,
        noise_scale=noise_scale,
        prototype_scale=prototype_scale,
        seed=seed,
    )


def dataset_spec(name: str) -> DatasetSpec:
    """Return the paper-scale :class:`DatasetSpec` for ``name``."""
    key = name.lower().replace("_", "-")
    if key not in PAPER_DATASET_SPECS:
        raise ValueError(f"unknown dataset {name!r}; available: {sorted(PAPER_DATASET_SPECS)}")
    return PAPER_DATASET_SPECS[key]
