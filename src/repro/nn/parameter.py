"""Trainable parameter container and the arena that holds a model's parameters.

The neural-network substrate mirrors the small slice of the PyTorch API that
FedSZ touches: modules own named :class:`Parameter` tensors (float32 numpy
arrays with an associated gradient buffer) and named buffers (non-trainable
state such as BatchNorm running statistics), and expose them through
``state_dict()`` / ``load_state_dict()``.

A model's parameters live in one :class:`ParameterArena` (built by
:mod:`repro.nn.module` on first use): one contiguous float32 array of values
and one of gradients, so that exporting, loading and stepping a model are a
few whole-array operations instead of a walk over its parameters.  A bound
parameter's ``data`` is a view into the values, and its ``grad``, once
accumulated, a view into the gradients, where the layers' backward kernels
write a first gradient directly (:attr:`Parameter.grad_slot`).  An arena is
valid only as long as nothing is registered anywhere and no bound parameter's
``data`` is rebound: each such change bumps a process-wide epoch
(:func:`invalidate_arenas`), and an arena or layout built under an older epoch
is rebuilt on next use.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

_epoch = 0

_FLOAT32 = np.dtype(np.float32)


def _float32(values) -> np.ndarray:
    """``values`` as a float32 ndarray: itself when it is one (no ``asarray`` call)."""
    if type(values) is np.ndarray and values.dtype is _FLOAT32:
        return values
    return np.asarray(values, dtype=np.float32)


def arena_epoch() -> int:
    """The current arena epoch; arenas built under an older one are stale."""
    return _epoch


def invalidate_arenas() -> None:
    """Make every arena and module layout built so far stale."""
    global _epoch
    _epoch += 1


class Parameter:
    """A trainable tensor: value plus accumulated gradient."""

    def __init__(self, data: np.ndarray, requires_grad: bool = True) -> None:
        self._data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        #: A weak reference to the arena holding this parameter (the model
        #: owns its arena, and a cycle would keep a dropped model alive until
        #: the garbage collector runs), and its gradient slot there.
        self._arena: Optional[weakref.ref] = None
        self._grad_view: Optional[np.ndarray] = None

    def __getstate__(self) -> dict:
        # Copies and pickles are standalone: their arrays are their own.
        state = self.__dict__.copy()
        state["_arena"] = state["_grad_view"] = None
        return state

    @property
    def data(self) -> np.ndarray:
        """The value array (a view into the arena when bound)."""
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float32)
        if value is not self._data and self._arena is not None:
            invalidate_arenas()
        self._data = value

    @property
    def arena(self) -> Optional["ParameterArena"]:
        """The arena this parameter is bound to, if it is alive."""
        return None if self._arena is None else self._arena()

    @property
    def shape(self) -> tuple:
        """Shape of the underlying array."""
        return self._data.shape

    @property
    def size(self) -> int:
        """Number of elements."""
        return int(self._data.size)

    @property
    def nbytes(self) -> int:
        """Byte footprint of the value array."""
        return int(self._data.nbytes)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    @property
    def grad_slot(self) -> Optional[np.ndarray]:
        """Where a kernel may write this parameter's next gradient itself.

        The arena's gradient slot while no gradient is held, ``None`` once one
        is (a later gradient is added to it) or when the parameter is bound to
        no arena.  A kernel that writes the slot hands it to
        :meth:`accumulate_grad` once the write has finished; until then the
        parameter holds no gradient.
        """
        return self._grad_view if self.grad is None else None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` to the accumulated gradient (creating it if needed).

        The first gradient after :meth:`zero_grad` is written into the arena's
        gradient slot when the parameter is bound (a private copy otherwise);
        later ones are added to it in place.  The slot itself, written by a
        kernel through :attr:`grad_slot`, becomes the gradient without a copy.
        """
        if self.grad is None and grad is self._grad_view and grad is not None:
            self.grad = grad
            return
        grad = _float32(grad)
        if grad.shape != self._data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter shape {self._data.shape}"
            )
        if self.grad is not None:
            self.grad += grad
        elif self._grad_view is not None:
            self._grad_view[...] = grad
            self.grad = self._grad_view
        else:
            self.grad = grad.copy()

    def copy_(self, values: np.ndarray) -> None:
        """In-place overwrite of the parameter value (used by load_state_dict)."""
        values = _float32(values)
        if values.shape != self._data.shape:
            raise ValueError(
                f"cannot load values of shape {values.shape} into parameter of shape "
                f"{self._data.shape}"
            )
        self._data[...] = values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self._data.shape}, requires_grad={self.requires_grad})"


class ParameterArena:
    """Contiguous float32 values and gradients of distinct parameters, in order.

    Building one copies each parameter's values (and gradient, if it has one)
    into its slice and binds the parameter to it.  A parameter bound to
    another arena that is still current is taken over, and the other arena
    goes stale.  ``scratch`` and the velocity lent to one optimizer at a time
    (:meth:`lend_velocity`) are further parameter-sized arrays, allocated on
    first use and then reused by every optimizer over this arena.
    """

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        self.bounds: List[Tuple[int, int]] = []
        start = 0
        for parameter in self.parameters:
            self.bounds.append((start, start + parameter.size))
            start += parameter.size
        self.values = np.empty(start, dtype=np.float32)
        self.grads = np.empty(start, dtype=np.float32)
        self._scratch: Optional[np.ndarray] = None
        self._velocity: Optional[np.ndarray] = None
        self._velocity_owner: Optional[weakref.ref] = None
        own = weakref.ref(self)
        taken_over = False
        for parameter, (start, stop) in zip(self.parameters, self.bounds, strict=True):
            values = self.values[start:stop].reshape(parameter.shape)
            values[...] = parameter.data
            grad = self.grads[start:stop].reshape(parameter.shape)
            if parameter.grad is not None:
                grad[...] = parameter.grad
                parameter.grad = grad
            previous = parameter.arena
            taken_over |= previous is not None and previous.current()
            parameter._data = values
            parameter._arena = own
            parameter._grad_view = grad
        if taken_over:
            invalidate_arenas()
        self.epoch = arena_epoch()

    def current(self) -> bool:
        """Whether no registration or rebinding happened since this was built."""
        return self.epoch == _epoch

    @property
    def scratch(self) -> np.ndarray:
        """Uninitialised work space the size of the values."""
        if self._scratch is None:
            self._scratch = np.empty_like(self.values)
        return self._scratch

    def lend_velocity(self, optimizer: object) -> Optional[np.ndarray]:
        """The velocity buffer, lent to ``optimizer`` to overwrite; ``None``
        while another live optimizer holds it, so two never share one."""
        owner = self._velocity_owner() if self._velocity_owner is not None else None
        if owner is not None and owner is not optimizer:
            return None
        if self._velocity is None:
            self._velocity = np.empty_like(self.values)
        self._velocity_owner = weakref.ref(optimizer)
        return self._velocity
