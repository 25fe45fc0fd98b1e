"""Shared workload builders for the experiment harnesses.

Three kinds of workload are needed to regenerate the paper's tables and
figures:

* **paper-scale state dicts** whose tensor shapes match torchvision's
  AlexNet / MobileNetV2 / ResNet-50 and whose weight values are distributed
  like trained weights (heavy-tailed, dataset-seeded) — used by the
  compression-ratio, sizing and communication experiments, where only the
  data distribution matters, not a functioning model;
* **trained tiny models** of the same architectural families, genuinely
  trained on the synthetic datasets — used wherever inference accuracy is the
  measured quantity (Figures 4 and 5, Table I's accuracy columns);
* **federated setups** (datasets, model factory, configuration) shared by the
  convergence and timing experiments.

Paper-scale tensors can optionally be subsampled (``max_elements_per_tensor``)
so that sweeps over many (model, dataset, bound) combinations remain fast;
ratios measured on the subsample track the full-tensor ratios closely because
the value distribution is what drives the entropy stage.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.data import SyntheticImageDataset, load_dataset
from repro.fl import FLConfig
from repro.nn.models import create_model
from repro.nn.module import Module
from repro.utils.seeding import SeedSequenceFactory

#: (model, dataset) grids evaluated by the paper.
PAPER_MODELS = ("alexnet", "mobilenetv2", "resnet50")
PAPER_DATASETS = ("cifar10", "caltech101", "fashion-mnist")

#: Per-model Laplace scale of the trained-weight bulk (Figure 3 calibration).
_WEIGHT_SCALES: Dict[str, float] = {
    "alexnet": 0.016,
    "mobilenetv2": 0.075,
    "resnet50": 0.032,
    "resnet18": 0.03,
}

#: Dataset-specific spread multiplier: harder tasks (more classes) leave the
#: fine-tuned weights slightly more spread out, which is why Table V's ratios
#: differ a little between datasets for the same model.
_DATASET_SPREAD: Dict[str, float] = {
    "cifar10": 1.0,
    "caltech101": 1.25,
    "fashion-mnist": 0.95,
}


def _dataset_seed(dataset: str) -> int:
    """Per-dataset seed offset, the same in every process (``hash()`` of a str is salted)."""
    return zlib.crc32(f"fedsz-repro/{dataset}".encode())


def _heavy_tailed_weights(rng: np.random.Generator, size: int, scale: float) -> np.ndarray:
    """Draw trained-like weights: Laplace bulk, a wider mid-tail, rare outliers.

    The three-component mixture matches the qualitative shape of trained
    convolutional checkpoints (Figure 3): most mass concentrated near zero, a
    noticeable fraction spread several scales wider (later layers / biases
    folded into weights), and isolated large-magnitude values that set the
    tensor's dynamic range.
    """
    values = rng.laplace(0.0, scale / np.sqrt(2.0), size)
    mid_tail = max(1, size // 10)
    positions = rng.choice(size, mid_tail, replace=False)
    values[positions] = rng.laplace(0.0, 3.0 * scale / np.sqrt(2.0), mid_tail)
    outliers = max(1, size // 2000)
    positions = rng.choice(size, outliers, replace=False)
    values[positions] = rng.uniform(-0.9, 0.9, outliers)
    # Trained weights stay within [-1, 1] (Figure 3); clip the rare tail draws
    # that would exceed it.
    return np.clip(values, -1.0, 1.0).astype(np.float32)


def pretrained_like_state_dict(
    model_name: str,
    dataset: str = "cifar10",
    max_elements_per_tensor: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """A paper-scale state dict with trained-like weight statistics.

    The tensor *shapes* come from the real architecture; the large weight
    tensors are re-drawn from a heavy-tailed (Laplace bulk + rare outliers)
    distribution whose scale depends on the model family and dataset, which
    reproduces the compressibility of genuinely trained checkpoints without
    requiring GPU-scale training.
    """
    num_classes = 101 if dataset == "caltech101" else 10
    in_channels = 1 if dataset == "fashion-mnist" else 3
    model = create_model(model_name, "paper", num_classes=num_classes, in_channels=in_channels, seed=seed)
    state = model.state_dict()

    scale = _WEIGHT_SCALES.get(model_name, 0.02) * _DATASET_SPREAD.get(dataset, 1.0)
    rng = np.random.default_rng(seed * 1_000_003 + _dataset_seed(dataset) % 65_536)

    synthesized: Dict[str, np.ndarray] = {}
    for name, tensor in state.items():
        if "weight" in name and tensor.size > 1024 and np.issubdtype(tensor.dtype, np.floating):
            size = tensor.size
            if max_elements_per_tensor is not None and size > max_elements_per_tensor:
                size = int(max_elements_per_tensor)
            values = _heavy_tailed_weights(rng, size, scale)
            if size == tensor.size:
                synthesized[name] = values.reshape(tensor.shape)
            else:
                synthesized[name] = values
        else:
            synthesized[name] = tensor
    return synthesized


def model_weight_sample(model_name: str, num_values: int = 1_000_000, dataset: str = "cifar10", seed: int = 0) -> np.ndarray:
    """A flat sample of trained-like weights for one model family."""
    scale = _WEIGHT_SCALES.get(model_name, 0.02) * _DATASET_SPREAD.get(dataset, 1.0)
    rng = np.random.default_rng(seed * 7919 + _dataset_seed(dataset) % 65_536)
    return _heavy_tailed_weights(rng, num_values, scale)


@dataclass
class FederatedSetup:
    """Everything needed to run one federated experiment."""

    model_fn: Callable[[], Module]
    train_dataset: SyntheticImageDataset
    validation_dataset: SyntheticImageDataset
    config: FLConfig
    model_name: str
    dataset_name: str


def build_federated_setup(
    model_name: str = "resnet50",
    dataset_name: str = "cifar10",
    num_clients: int = 4,
    rounds: int = 10,
    samples: int = 600,
    image_size: int = 16,
    batch_size: int = 32,
    learning_rate: float = 0.1,
    local_epochs: int = 2,
    prototype_scale: float = 0.12,
    noise_scale: float = 0.6,
    seed: int = 0,
) -> FederatedSetup:
    """Build the tiny-model federated setup used by the accuracy experiments.

    The synthetic task difficulty (``prototype_scale`` / ``noise_scale``) is
    tuned so that validation accuracy neither saturates in one round nor stays
    at chance — the regime where compression-induced weight error has a
    visible effect, as in the paper's CIFAR-10 experiments.
    """
    seeds = SeedSequenceFactory(seed)
    num_classes = 101 if dataset_name == "caltech101" else 10
    in_channels = 1 if dataset_name == "fashion-mnist" else 3
    # Caltech101 has 101 classes; with tiny synthetic data we keep the task
    # learnable by capping the number of active classes at 10 (the harness
    # notes this substitution).
    effective_classes = min(num_classes, 10)

    dataset = load_dataset(
        dataset_name,
        num_samples=samples,
        image_size=image_size,
        noise_scale=noise_scale,
        prototype_scale=prototype_scale,
        seed=seeds.next_seed(),
    )
    if effective_classes < dataset.num_classes:
        mask = dataset.labels < effective_classes
        dataset = dataset.subset(np.nonzero(mask)[0])
    train, validation = dataset.split(0.8, seed=seeds.next_seed())

    model_seed = seeds.next_seed()

    def model_fn() -> Module:
        return create_model(
            model_name,
            "tiny",
            num_classes=effective_classes,
            in_channels=in_channels,
            seed=model_seed,
        )

    config = FLConfig(
        num_clients=num_clients,
        rounds=rounds,
        local_epochs=local_epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        momentum=0.9,
        bandwidth_mbps=10.0,
        seed=seeds.next_seed(),
    )
    return FederatedSetup(
        model_fn=model_fn,
        train_dataset=train,
        validation_dataset=validation,
        config=config,
        model_name=model_name,
        dataset_name=dataset_name,
    )


def train_tiny_model(
    model_name: str = "resnet50",
    dataset_name: str = "cifar10",
    epochs: int = 6,
    samples: int = 500,
    image_size: int = 16,
    learning_rate: float = 0.08,
    seed: int = 0,
) -> Tuple[Module, SyntheticImageDataset]:
    """Centrally train a tiny model; returns the model and its held-out data.

    Used by Figure 5 (accuracy versus error bound), where a single trained
    model is repeatedly corrupted by compression and re-evaluated.
    """
    from repro.data import DataLoader
    from repro.nn import CrossEntropyLoss, SGD

    setup = build_federated_setup(
        model_name,
        dataset_name,
        samples=samples,
        image_size=image_size,
        learning_rate=learning_rate,
        seed=seed,
    )
    model = setup.model_fn()
    loader = DataLoader(setup.train_dataset, batch_size=32, shuffle=True, seed=seed)
    loss_fn = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=learning_rate, momentum=0.9)
    model.train()
    for _ in range(epochs):
        for images, labels in loader:
            optimizer.zero_grad()
            loss_fn(model(images), labels)
            model.backward(loss_fn.backward())
            optimizer.step()
    return model, setup.validation_dataset
