"""The one rule for when library code may start a thread pool of its own."""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Optional


def pool_width(units: int, cap: Optional[int] = None) -> int:
    """Threads a pool over ``units`` independent pieces of work may use here.

    A pool starts only for at least two units, and only from the main thread
    of a process that is not a ``multiprocessing`` child: an executor's thread
    and process workers already run one client each, so a pool inside them
    would multiply with theirs.  Its width is ``units`` capped by ``cap``
    (``None``: the host's cores).  Every other call is the serial path (1).
    """
    if (
        units < 2
        or threading.current_thread() is not threading.main_thread()
        or multiprocessing.parent_process() is not None
    ):
        return 1
    return min(cap or os.cpu_count() or 1, units)
