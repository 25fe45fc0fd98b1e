"""Wall-clock timing helpers.

The evaluation reports compression runtime, throughput and epoch-time
breakdowns, so a small set of consistent timing primitives is used everywhere
instead of scattering ``time.perf_counter()`` calls around the codebase.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Tuple, TypeVar

from repro.utils.pools import in_lane

T = TypeVar("T")


@dataclass
class Timer:
    """Accumulating timer keyed by label.

    Example
    -------
    >>> timer = Timer()
    >>> with timer.measure("compress"):
    ...     pass
    >>> timer.total("compress") >= 0.0
    True
    """

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def measure(self, label: str) -> Iterator[None]:
        """Context manager adding the elapsed time to ``label``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.add(label, elapsed)

    def add(self, label: str, seconds: float) -> None:
        """Record ``seconds`` against ``label``."""
        self.totals[label] = self.totals.get(label, 0.0) + float(seconds)
        self.counts[label] = self.counts.get(label, 0) + 1

    def total(self, label: str) -> float:
        """Total seconds recorded for ``label`` (0.0 if never recorded)."""
        return self.totals.get(label, 0.0)

    def mean(self, label: str) -> float:
        """Mean seconds per measurement for ``label``."""
        count = self.counts.get(label, 0)
        if count == 0:
            return 0.0
        return self.totals[label] / count

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all totals."""
        return dict(self.totals)

    def reset(self) -> None:
        """Clear all recorded measurements."""
        self.totals.clear()
        self.counts.clear()


def lane_clock() -> Callable[[], float]:
    """The clock codec seconds are read with: ``time.perf_counter`` on the
    main thread, ``time.thread_time`` off it and on every lane of
    :func:`~repro.utils.pools.run_lanes` (the caller's included), whose wall
    seconds would also count their waits on each other (an AlexNet compress
    on one of two lanes, 2 vCPUs: 1.40–1.45x its one-lane seconds on the wall
    clock, 1.20–1.34x on the thread clock — the lanes share caches too)."""
    if threading.current_thread() is threading.main_thread() and not in_lane():
        return time.perf_counter
    return time.thread_time


def timed(func: Callable[..., T], *args, **kwargs) -> Tuple[T, float]:
    """Call ``func`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start
