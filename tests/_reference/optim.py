"""Per-parameter twin of :class:`repro.nn.optim.SGD` (the pre-arena step)."""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.parameter import Parameter


class ReferenceSGD:
    """SGD stepping each parameter with fresh arrays, velocity keyed by index."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters: List[Parameter] = list(parameters)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for index, parameter in enumerate(self.parameters):
            if not parameter.requires_grad or parameter.grad is None:
                continue
            gradient = parameter.grad
            if self.weight_decay:
                gradient = gradient + self.weight_decay * parameter.data
            if self.momentum:
                velocity = self._velocity.get(index)
                if velocity is None:
                    velocity = np.zeros_like(parameter.data)
                velocity = self.momentum * velocity + gradient
                self._velocity[index] = velocity
                update = velocity
            else:
                update = gradient
            parameter.data -= self.lr * update
