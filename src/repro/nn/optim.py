"""Optimizers.

Only SGD (with optional momentum and weight decay) is provided — it is the
optimizer used by FedAvg's local updates in the paper and keeps client state
minimal, which matters for the federated simulation.

When an optimizer's parameters are exactly a model's
:class:`~repro.nn.parameter.ParameterArena` (``SGD(model.parameters())``) and
every one holds a gradient, :meth:`SGD.step` is one in-place pass over the
whole arena; otherwise it runs the same in-place arithmetic per parameter.
Per element the float32 operations are ``g + wd·w``, ``m·v + g`` and
``w −= lr·u``, in that order, in both cases, so the two give the same bits
(``tests/nn/test_parameter_arena.py`` holds them to the per-parameter
reference in ``tests/_reference/optim.py``).  The velocity and the work space
are parameter-sized arrays the arena keeps and lends to one live optimizer at
a time, so a fleet's per-client optimizers allocate none.  Per one-sample
client (8×8 input, momentum 0.9, BLAS pinned, 2 vCPUs) a first step takes
0.22 ms instead of the per-parameter walk's 0.98 ms on AlexNet-tiny, and
0.04 ms instead of 0.42 ms on MobileNetV2-tiny.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

import numpy as np

from repro.nn.parameter import Parameter, ParameterArena


def _checked(name: str, value: float, positive: bool = False) -> float:
    """``value`` as a float; NaN, infinities and negatives (and zero if ``positive``) raise."""
    value = float(value)
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")
    return value


class SGD:
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        self.lr = _checked("learning rate", lr, positive=True)
        self.momentum = _checked("momentum", momentum)
        self.weight_decay = _checked("weight decay", weight_decay)
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("SGD received an empty parameter list")
        #: ``(start, stop)`` of each parameter in the flat velocity and work
        #: space — its slice of the arena when the parameters are one.
        self._bounds = []
        start = 0
        for parameter in self.parameters:
            self._bounds.append((start, start + parameter.size))
            start += parameter.size
        self._velocity: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None

    def zero_grad(self) -> None:
        """Clear gradients on every managed parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one SGD update using the accumulated gradients."""
        arena = self._arena()
        fused = arena is not None and all(
            p.requires_grad and p.grad is p._grad_view for p in self.parameters
        )
        fresh = bool(self.momentum) and self._velocity is None
        if fresh:
            self._velocity = self._borrow_velocity(arena, zeroed=not fused)
        if fused:
            self._update(arena.values, arena.grads, arena.scratch, self._velocity, fresh)
            return
        if arena is not None:
            scratch = arena.scratch
        else:
            if self._scratch is None:
                self._scratch = np.empty(self._bounds[-1][1], dtype=np.float32)
            scratch = self._scratch
        velocity = self._velocity
        for parameter, (start, stop) in zip(self.parameters, self._bounds, strict=True):
            if not parameter.requires_grad or parameter.grad is None:
                continue
            shape = parameter.shape
            self._update(
                parameter.data,
                parameter.grad,
                scratch[start:stop].reshape(shape),
                None if velocity is None else velocity[start:stop].reshape(shape),
            )

    def _update(self, values, gradient, scratch, velocity, fresh: bool = False) -> None:
        """``values −= lr · (m·velocity + (gradient + wd·values))`` in place.

        A ``fresh`` velocity is zero but not yet written: ``m·0 + u`` is
        ``u + 0`` for a finite ``m`` (both turn −0 into +0), so one add fills it.
        """
        update = gradient
        if self.weight_decay:
            np.multiply(values, self.weight_decay, out=scratch)
            update = np.add(gradient, scratch, out=scratch)
        if velocity is not None:
            if fresh:
                np.add(update, 0.0, out=velocity)
            else:
                velocity *= self.momentum
                velocity += update
            update = velocity
        np.multiply(update, self.lr, out=scratch)
        values -= scratch

    def _arena(self) -> Optional[ParameterArena]:
        """The current arena whose parameters are exactly this optimizer's."""
        arena = self.parameters[0].arena
        if arena is None or not arena.current() or arena.parameters != self.parameters:
            return None
        return arena

    def _borrow_velocity(self, arena: Optional[ParameterArena], zeroed: bool) -> np.ndarray:
        """This optimizer's flat velocity: the arena's when it is free, zeroed
        unless the first step writes every element."""
        velocity = arena.lend_velocity(self) if arena is not None else None
        if velocity is None:
            return np.zeros(self._bounds[-1][1], dtype=np.float32)
        if zeroed:
            velocity.fill(0.0)
        return velocity

    def set_lr(self, lr: float) -> None:
        """Change the learning rate (e.g. for per-round decay schedules)."""
        self.lr = _checked("learning rate", lr, positive=True)
