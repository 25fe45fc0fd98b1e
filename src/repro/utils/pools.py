"""The one rule for when library code may start a thread pool, and the pool."""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from typing import Callable, Dict, List, Optional, Sequence

_lane = threading.local()


def in_lane() -> bool:
    """Whether the calling thread is running a lane of :func:`run_lanes`."""
    return getattr(_lane, "active", False)


def pool_width(units: int, cap: Optional[int] = None) -> int:
    """Threads a pool over ``units`` independent pieces of work may use here.

    A pool starts only for at least two units, and only from the main thread
    of a process that is not a ``multiprocessing`` child, outside any lane of
    :func:`run_lanes`: an executor's lanes and process workers already run one
    client each, so a pool inside them would multiply with theirs.  Its width
    is ``units`` capped by ``cap`` (``None``: the host's cores).  Every other
    call is the serial path (1).
    """
    if (
        units < 2
        or in_lane()
        or threading.current_thread() is not threading.main_thread()
        or multiprocessing.parent_process() is not None
    ):
        return 1
    return min(cap or os.cpu_count() or 1, units)


def run_lanes(items: Sequence, work: Callable, width: int, setup: Callable[[int], object]) -> List:
    """``work(state, item)`` of every item on ``width`` lanes, in item order.

    The calling thread is lane 0 and ``width - 1`` helper threads are the
    others; each lane builds its ``state = setup(lane)`` once, then the lanes
    pull the items in the order given.  Inside a lane :func:`pool_width` is 1
    and :func:`~repro.utils.timing.lane_clock` reads the thread's CPU clock.
    Once an item fails no lane pulls another, and after every lane has
    joined the lowest-index error is raised (a lane's ``setup`` error counts
    as below every item) — what the serial loop would have raised.
    """
    results: List = [None] * len(items)
    errors: Dict[int, Exception] = {}
    pulls = itertools.count()

    def lane(number: int) -> None:
        outer, _lane.active = in_lane(), True
        index = -1 - number  # where a ``setup`` error sorts
        try:
            state = setup(number)
            while not errors and (index := next(pulls)) < len(items):
                results[index] = work(state, items[index])
        except Exception as error:  # re-raised by the caller below
            errors[index] = error
        finally:
            _lane.active = outer

    helpers = [
        threading.Thread(target=lane, args=(number,), name=f"lane-{number}", daemon=True)
        for number in range(1, min(width, len(items)))
    ]
    for helper in helpers:
        helper.start()
    try:
        lane(0)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results
