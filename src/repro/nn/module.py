"""Module base class: the ``state_dict`` surface FedSZ compresses.

The class intentionally mirrors ``torch.nn.Module`` for the features the
FedSZ pipeline and the federated-learning runtime rely on:

* attribute assignment auto-registers child modules and parameters;
* ``named_parameters`` / ``named_buffers`` walk the module tree with
  dot-separated names (``features.0.weight`` ...);
* ``state_dict()`` returns an ordered mapping of *numpy arrays* covering both
  trainable parameters and buffers (BatchNorm running statistics and the
  ``num_batches_tracked`` counters), exactly the object Algorithm 1 of the
  paper partitions into lossy / lossless components;
* ``load_state_dict()`` restores a model from such a mapping;
* ``train()`` / ``eval()`` toggle training-mode behaviour (Dropout,
  BatchNorm).

Unlike PyTorch there is no autograd graph: every module implements an
explicit ``forward`` and ``backward`` and caches whatever it needs in
between.  That keeps the substrate small, dependency-free and fast enough for
laptop-scale federated simulations.  Under :func:`inference` (``torch``'s
``no_grad`` in spirit) a call keeps no cache, so each activation is freed once
the next layer has read it; ``eval()`` is independent of it.

The tree is walked once, not on every call.  On first use, a module flattens
the tree below it into a :class:`_Layout`: its module, parameter and buffer
lists, and a
:class:`~repro.nn.parameter.ParameterArena` holding every parameter's values
and gradients in one contiguous float32 array each, in ``named_parameters()``
order.  Every traversal (``train()`` / ``eval()`` included) reads the layout;
``state_dict()`` is one copy of the values arena sliced into per-name arrays,
plus the buffer copies; ``load_state_dict()`` is one pass over the layout; and
:class:`~repro.nn.optim.SGD` steps the whole arena at once.

Invalidation: any registration anywhere (assigning a ``Module`` or
``Parameter`` attribute, ``register_parameter`` / ``register_buffer`` /
``add_module``, ``Sequential.append``), or rebinding a bound parameter's
``data``, makes every layout stale, and the next use rebuilds it.
``copy.deepcopy`` and pickling drop it.  A submodule asked for its own layout
takes its parameters over, and the model's layout is rebuilt on its next use.

Bit-identity: the arena changes where the float32 values live, never which
operations produce them, so training, exports and every history byte equal
those of a per-parameter walk (``tests/nn/test_parameter_arena.py``).

Per one-sample client (8×8 input, momentum 0.9, BLAS pinned to one thread,
2 vCPUs; medians over 400 clients), per-parameter walk → arena:

====================  ===================  ======================
per client            AlexNet-tiny (ms)    MobileNetV2-tiny (ms)
====================  ===================  ======================
``SGD(...)``          0.16 → 0.03          0.13 → 0.05
``SGD.step``          0.98 → 0.22          0.42 → 0.04
``state_dict``        0.35 → 0.10          0.35 → 0.11
``load_state_dict``   0.17 → 0.09          0.39 → 0.15
whole client          3.6 → 2.3            4.6 → 3.6
====================  ===================  ======================
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.parameter import Parameter, ParameterArena, arena_epoch, invalidate_arenas


_mode = threading.local()


@contextmanager
def inference() -> Iterator[None]:
    """Forward without keeping anything for ``backward``, on this thread.

    Inside the block every ``module(inputs)`` drops the cache its ``forward``
    made, so a forward's peak memory is one layer's working set rather than
    every layer's activations, and the model holds none of them afterwards.
    The forward code and its arithmetic are the same as outside; only what is
    kept changes, and a ``backward`` after such a forward raises
    ``RuntimeError``.  The mode is per thread (a pool lane enters it itself),
    nests, and is restored on exit, also when the block raises.
    """
    outer = getattr(_mode, "inference", False)
    _mode.inference = True
    try:
        yield
    finally:
        _mode.inference = outer


class _Layout:
    """One module tree flattened: what every traversal and ``state_dict`` read.

    Holds no reference to the root, so a model and its layout form no cycle
    and a dropped model is freed at once.
    """

    def __init__(self, root: "Module") -> None:
        #: ``(dotted name, module)`` of every module below the root.
        self.descendants: List[Tuple[str, Module]] = []
        self.parameters: List[Tuple[str, Parameter]] = []
        #: ``(dotted name, owner's buffer dict, key)`` of every buffer.
        self.buffers: List[Tuple[str, Dict[str, np.ndarray], str]] = []
        #: Modules (the root included) that draw from a private random stream,
        #: such as ``Dropout``'s ``_rng``, in tree order.
        self.stochastic: List[Module] = []
        for prefix, module in root._walk():
            if module is not root:
                self.descendants.append((prefix, module))
            if isinstance(getattr(module, "_rng", None), np.random.Generator):
                self.stochastic.append(module)
            dotted = f"{prefix}." if prefix else ""
            for key, parameter in module._parameters.items():
                if parameter is not None:
                    self.parameters.append((dotted + key, parameter))
            for key, buffer in module._buffers.items():
                if buffer is not None:
                    self.buffers.append((dotted + key, module._buffers, key))
        self.names = {name for name, _ in self.parameters}
        self.names.update(name for name, _, _ in self.buffers)
        # A parameter registered under two names is stored once; its second
        # name gets a copy in state_dict(), so no two entries share memory.
        distinct = {id(parameter): parameter for _, parameter in self.parameters}
        self.arena = ParameterArena(distinct.values())
        slots = dict(zip(distinct, self.arena.bounds, strict=True))
        seen = set()
        #: ``(name, start, stop, shape, repeated)`` of each parameter's slice.
        self.slices: List[Tuple[str, int, int, tuple, bool]] = []
        for name, parameter in self.parameters:
            start, stop = slots[id(parameter)]
            self.slices.append((name, start, stop, parameter.shape, id(parameter) in seen))
            seen.add(id(parameter))
        self.epoch = self.arena.epoch


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True
        #: Whatever ``forward`` keeps for ``backward`` (activations, columns,
        #: masks), read through :meth:`_saved`.  Scratch, not state: never in
        #: ``state_dict()``, dropped when the module is pickled or copied, and
        #: never kept by a call under :func:`inference` (``None`` then).
        self._cache = None
        #: The flattened tree below this module, built on first use.
        self._flat: Optional[_Layout] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_cache"] = None
        state["_flat"] = None
        return state

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_parameter(self, name: str, parameter: Optional[Parameter]) -> None:
        """Register a trainable parameter under ``name``."""
        if parameter is not None and not isinstance(parameter, Parameter):
            raise TypeError(f"expected Parameter or None, got {type(parameter).__name__}")
        self._parameters[name] = parameter
        invalidate_arenas()

    def register_buffer(self, name: str, buffer: Optional[np.ndarray]) -> None:
        """Register non-trainable state (e.g. running statistics)."""
        self._buffers[name] = None if buffer is None else np.asarray(buffer)
        invalidate_arenas()

    def add_module(self, name: str, module: Optional["Module"]) -> None:
        """Register a child module under ``name``."""
        if module is not None and not isinstance(module, Module):
            raise TypeError(f"expected Module or None, got {type(module).__name__}")
        self._modules[name] = module
        invalidate_arenas()

    def __setattr__(self, name: str, value) -> None:
        # Auto-registration mirrors torch.nn.Module ergonomics.
        if isinstance(value, Parameter):
            if "_parameters" not in self.__dict__:
                raise AttributeError("Module.__init__() must be called before assigning parameters")
            self._parameters[name] = value
            invalidate_arenas()
        elif isinstance(value, Module):
            if "_modules" not in self.__dict__:
                raise AttributeError("Module.__init__() must be called before assigning submodules")
            self._modules[name] = value
            invalidate_arenas()
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _walk(self) -> Iterator[Tuple[str, "Module"]]:
        """``(dotted name, module)`` for the tree, parents before children.

        One flat loop over an explicit stack; only :class:`_Layout` calls it.
        """
        stack = [("", self)]
        while stack:
            name, module = stack.pop()
            yield name, module
            for child_name, child in reversed(module._modules.items()):
                if child is not None:
                    stack.append((f"{name}.{child_name}" if name else child_name, child))

    def _layout(self) -> _Layout:
        """The flattened tree below this module, rebuilt when stale."""
        layout = self.__dict__.get("_flat")
        if layout is None or layout.epoch != arena_epoch():
            layout = _Layout(self)
            object.__setattr__(self, "_flat", layout)
        return layout

    @staticmethod
    def _prefixed(items: list, prefix: str) -> Iterator[tuple]:
        if not prefix:
            return iter(items)
        return ((f"{prefix}.{name}" if name else prefix, *rest) for name, *rest in items)

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """All modules in the tree, including ``self``, parents before children."""
        return self._prefixed([("", self), *self._layout().descendants], prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """All parameters in the tree with dot-separated names."""
        return self._prefixed(self._layout().parameters, prefix)

    def parameters(self) -> Iterator[Parameter]:
        """All parameters in the tree."""
        return (parameter for _, parameter in self._layout().parameters)

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """All buffers in the tree with dot-separated names."""
        buffers = [(name, owner[key]) for name, owner, key in self._layout().buffers]
        return self._prefixed(buffers, prefix)

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Snapshot of every parameter and buffer as numpy arrays.

        Arrays are copies, so mutating the returned dictionary does not affect
        the live model — matching ``torch.nn.Module.state_dict()`` closely
        enough for the compression pipeline.  The parameters are disjoint
        slices of one copy of the values arena.
        """
        layout = self._layout()
        values = layout.arena.values.copy()
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, start, stop, shape, repeated in layout.slices:
            value = values[start:stop].reshape(shape)
            state[name] = value.copy() if repeated else value
        for name, owner, key in layout.buffers:
            state[name] = np.asarray(owner[key]).copy()
        return state

    def load_state_dict(self, state_dict: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Restore parameters and buffers from ``state_dict``."""
        layout = self._layout()
        missing: List[str] = []
        for name, parameter in layout.parameters:
            if name in state_dict:
                parameter.copy_(state_dict[name])
            else:
                missing.append(name)
        # Buffers are replaced, not written into.
        for name, owner, key in layout.buffers:
            if name in state_dict:
                current = owner[key]
                incoming = np.asarray(state_dict[name])
                owner[key] = incoming.astype(current.dtype).reshape(current.shape)
            else:
                missing.append(name)
        unexpected = [key for key in state_dict if key not in layout.names]
        if strict and (missing or unexpected):
            raise KeyError(
                f"load_state_dict mismatch: missing={missing!r}, unexpected={unexpected!r}"
            )

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode on every module in the tree."""
        self.training = mode = bool(mode)
        for _, module in self._layout().descendants:
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode on every module in the tree."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(
            p.size for p in self.parameters() if not trainable_only or p.requires_grad
        )

    def state_nbytes(self) -> int:
        """Byte footprint of the full state dict (parameters + buffers)."""
        return int(sum(v.nbytes for v in self.state_dict().values()))

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        """Compute the module output for ``inputs``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        """Back-propagate ``grad_output`` and return the gradient w.r.t. input."""
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        output = self.forward(inputs)
        if getattr(_mode, "inference", False):
            self._cache = None
        return output

    def _saved(self):
        """What the last forward kept for ``backward``; raises if it kept nothing."""
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward needs the cache of a forward run outside "
                "repro.nn.inference(); the last forward ran in inference mode, or none ran"
            )
        return self._cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        child_names = ", ".join(self._modules)
        return f"{type(self).__name__}({child_names})"
