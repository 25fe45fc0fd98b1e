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
laptop-scale federated simulations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.parameter import Parameter


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True
        #: Whatever ``forward`` keeps for ``backward`` (activations, columns,
        #: masks).  Scratch, not state: never in ``state_dict()``, and dropped
        #: when the module is pickled.
        self._cache = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_cache"] = None
        return state

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_parameter(self, name: str, parameter: Optional[Parameter]) -> None:
        """Register a trainable parameter under ``name``."""
        if parameter is not None and not isinstance(parameter, Parameter):
            raise TypeError(f"expected Parameter or None, got {type(parameter).__name__}")
        self._parameters[name] = parameter

    def register_buffer(self, name: str, buffer: Optional[np.ndarray]) -> None:
        """Register non-trainable state (e.g. running statistics)."""
        self._buffers[name] = None if buffer is None else np.asarray(buffer)

    def add_module(self, name: str, module: Optional["Module"]) -> None:
        """Register a child module under ``name``."""
        if module is not None and not isinstance(module, Module):
            raise TypeError(f"expected Module or None, got {type(module).__name__}")
        self._modules[name] = module

    def __setattr__(self, name: str, value) -> None:
        # Auto-registration mirrors torch.nn.Module ergonomics.
        if isinstance(value, Parameter):
            if "_parameters" not in self.__dict__:
                raise AttributeError("Module.__init__() must be called before assigning parameters")
            self._parameters[name] = value
            object.__setattr__(self, name, value)
        elif isinstance(value, Module):
            if "_modules" not in self.__dict__:
                raise AttributeError("Module.__init__() must be called before assigning submodules")
            self._modules[name] = value
            object.__setattr__(self, name, value)
        else:
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        """Immediate child modules."""
        for module in self._modules.values():
            if module is not None:
                yield module

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """All modules in the tree, including ``self``, parents before children.

        One flat loop over an explicit stack: every other traversal is built
        on it, and recursive generators would hand each item up through one
        frame per tree level.
        """
        stack = [(prefix, self)]
        while stack:
            name, module = stack.pop()
            yield name, module
            for child_name, child in reversed(module._modules.items()):
                if child is not None:
                    stack.append((f"{name}.{child_name}" if name else child_name, child))

    def _named_members(self, attribute: str, prefix: str) -> Iterator[Tuple[str, object]]:
        """``(dotted name, member)`` for every non-``None`` entry of the per-module dict ``attribute``."""
        for module_name, module in self.named_modules(prefix):
            for name, member in getattr(module, attribute).items():
                if member is not None:
                    yield (f"{module_name}.{name}" if module_name else name), member

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """All parameters in the tree with dot-separated names."""
        return self._named_members("_parameters", prefix)

    def parameters(self) -> Iterator[Parameter]:
        """All parameters in the tree."""
        for _, parameter in self.named_parameters():
            yield parameter

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """All buffers in the tree with dot-separated names."""
        return self._named_members("_buffers", prefix)

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Snapshot of every parameter and buffer as numpy arrays.

        Arrays are copies, so mutating the returned dictionary does not affect
        the live model — matching ``torch.nn.Module.state_dict()`` closely
        enough for the compression pipeline.
        """
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, parameter in self.named_parameters():
            state[name] = parameter.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = np.asarray(buffer).copy()
        return state

    def load_state_dict(self, state_dict: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Restore parameters and buffers from ``state_dict``."""
        known = set()
        missing: List[str] = []
        for name, parameter in self.named_parameters():
            known.add(name)
            if name in state_dict:
                parameter.copy_(state_dict[name])
            else:
                missing.append(name)
        # Buffers are replaced, not written into, so walk their owners.
        for prefix, module in self.named_modules():
            for local_name, current in module._buffers.items():
                if current is None:
                    continue
                name = f"{prefix}.{local_name}" if prefix else local_name
                known.add(name)
                if name in state_dict:
                    incoming = np.asarray(state_dict[name])
                    module._buffers[local_name] = incoming.astype(current.dtype).reshape(current.shape)
                else:
                    missing.append(name)
        unexpected = [key for key in state_dict if key not in known]
        if strict and (missing or unexpected):
            raise KeyError(
                f"load_state_dict mismatch: missing={missing!r}, unexpected={unexpected!r}"
            )

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively."""
        self.training = bool(mode)
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
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
        return self.forward(inputs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        child_names = ", ".join(self._modules)
        return f"{type(self).__name__}({child_names})"
