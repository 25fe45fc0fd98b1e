"""Loss functions."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class targets.

    ``forward`` returns the scalar loss; ``backward`` returns the gradient of
    the loss with respect to the logits (already averaged over the batch), to
    be fed into the model's ``backward``.
    """

    def __init__(self) -> None:
        self._grad: np.ndarray | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        loss, grad = F.cross_entropy(logits, np.asarray(targets, dtype=np.int64))
        self._grad = grad
        return loss

    def backward(self) -> np.ndarray:
        if self._grad is None:
            raise RuntimeError("CrossEntropyLoss.backward() called before forward()")
        return self._grad

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)
