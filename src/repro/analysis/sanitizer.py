"""Runtime RNG/clock sanitizer: the dynamic half of the determinism lint.

The AST rules (DET001/DET002) catch global-RNG and wall-clock calls they can
*see*; this module catches the ones they cannot (dynamic dispatch, getattr,
third-party helpers).  While active, the legacy module-level
``numpy.random`` API, the stdlib ``random`` module functions and the banned
wall-clock sources (``time.time``/``time.time_ns``) raise
:class:`DeterminismViolation` — but only when called *from repo runtime
code* (a frame under ``src/repro``).  Callers outside the repo (pytest
internals, stdlib machinery, the tests themselves) pass through to the real
functions, so the sanitizer can wrap whole integration suites without
fighting the interpreter.

Activated by the autouse fixture in ``tests/integration/conftest.py`` around
the determinism suites (checkpoint-resume, process-executor, fleet-scale,
thread-stress); fork-based executor workers inherit the active patches, so
worker-side escapes fail loudly too.
"""

from __future__ import annotations

import functools
import random as _stdlib_random
import sys
import time as _time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.analysis import rule_rng as _rule_rng

__all__ = ["DeterminismViolation", "sanitized", "is_active"]


class DeterminismViolation(RuntimeError):
    """Repo runtime code touched global RNG or wall-clock under the sanitizer."""


#: numpy.random module-level functions backed by the hidden global
#: RandomState: rule_rng._NUMPY_GLOBAL_FNS, intersected with what the
#: installed numpy actually exposes.
_NUMPY_GLOBAL_FNS = tuple(
    sorted(name for name in _rule_rng._NUMPY_GLOBAL_FNS if hasattr(np.random, name))
)

_STDLIB_GLOBAL_FNS = (
    "seed", "getstate", "setstate", "getrandbits", "randbytes",
    "randrange", "randint", "choice", "choices", "shuffle", "sample",
    "random", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate",
)

_CLOCK_FNS = ("time", "time_ns")

#: Path fragment identifying repo runtime frames (src/repro/... on any OS).
_REPO_FRAGMENTS = ("/repro/", "\\repro\\")
_SELF_FILE = __file__

_active_depth = 0
_saved: List[Tuple[object, str, object]] = []


def is_active() -> bool:
    """Whether the sanitizer is currently patched in."""
    return _active_depth > 0


def _caller_is_repo_runtime() -> Tuple[bool, str]:
    """Inspect the calling frame (two hops up from the guard)."""
    frame = sys._getframe(2)
    filename = frame.f_code.co_filename
    location = f"{filename}:{frame.f_lineno}"
    if filename == _SELF_FILE:
        return False, location
    in_repo = any(fragment in filename for fragment in _REPO_FRAGMENTS)
    # The tests tree may exercise the globals directly while sanitized.
    in_tests = "/tests/" in filename or "\\tests\\" in filename
    return in_repo and not in_tests, location


def _guard(original: Callable, label: str) -> Callable:
    @functools.wraps(original)
    def guarded(*args, **kwargs):
        is_repo, location = _caller_is_repo_runtime()
        if is_repo:
            raise DeterminismViolation(
                f"{label} called from {location} while the RNG/clock "
                "sanitizer is active; repo runtime code must use explicit "
                "Generator streams / modelled time (see DET001/DET002)"
            )
        return original(*args, **kwargs)

    guarded.__repro_sanitizer__ = True
    return guarded


def _patch(module, names, prefix: str) -> None:
    for name in names:
        original = getattr(module, name, None)
        if original is None or getattr(original, "__repro_sanitizer__", False):
            continue
        _saved.append((module, name, original))
        setattr(module, name, _guard(original, f"{prefix}{name}"))


def _activate(rng: bool, clock: bool) -> None:
    if rng:
        _patch(np.random, _NUMPY_GLOBAL_FNS, "numpy.random.")
        _patch(_stdlib_random, _STDLIB_GLOBAL_FNS, "random.")
    if clock:
        _patch(_time, _CLOCK_FNS, "time.")


def _deactivate() -> None:
    while _saved:
        module, name, original = _saved.pop()
        setattr(module, name, original)


@contextmanager
def sanitized(rng: bool = True, clock: bool = True) -> Iterator[None]:
    """Context manager installing the sanitizer (re-entrant)."""
    global _active_depth
    if _active_depth == 0:
        _activate(rng=rng, clock=clock)
    _active_depth += 1
    try:
        yield
    finally:
        _active_depth -= 1
        if _active_depth == 0:
            _deactivate()


def violation_snapshot() -> Dict[str, int]:
    """Patch-state introspection for the self-tests."""
    return {
        "active_depth": _active_depth,
        "patched": len(_saved),
    }
