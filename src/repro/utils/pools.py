"""The one rule for when library code may start a thread pool, and the pool."""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections.abc import Iterator
from typing import Callable, Dict, Iterable, List, Optional

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


def run_lanes(items: Iterable, work: Callable, width: int, setup: Callable[[int], object]) -> List:
    """``work(state, item)`` of every item on ``width`` lanes, in item order.

    The calling thread is lane 0 and ``width - 1`` helper threads are the
    others; each lane builds its ``state = setup(lane)`` once, then the lanes
    pull the items in the order given.  ``items`` may be an iterator the
    caller is still producing: the helpers start at once and pull each item
    as it arrives, and the caller — a lane while it produces, too — joins
    them as lane 0 once it is exhausted.  Inside a lane :func:`pool_width` is
    1 and :func:`~repro.utils.timing.lane_clock` reads the thread's CPU
    clock.  Once an item fails no lane pulls another (the caller still
    produces the rest), and after every lane has joined the lowest-index
    error is raised (a lane's ``setup`` error counts as below every item, an
    error producing the items below those) — what the serial loop, which
    produces every item before it works any, would have raised.
    """
    streamed = isinstance(items, Iterator)
    queue: List = [] if streamed else list(items)
    results: List = [None] * len(queue)
    errors: Dict[int, Exception] = {}
    arrived = threading.Condition()
    producing = streamed
    pulled = 0

    def fail(index: int, error: Exception) -> None:
        with arrived:
            errors[index] = error
            arrived.notify_all()

    def pull() -> Optional[int]:
        """The next item's index once it is there; ``None`` when no lane may pull another."""
        nonlocal pulled
        with arrived:
            arrived.wait_for(lambda: errors or pulled < len(queue) or not producing)
            if errors or pulled == len(queue):
                return None
            pulled += 1
            return pulled - 1

    def produce() -> None:
        nonlocal producing
        try:
            for item in items:
                with arrived:
                    queue.append(item)
                    results.append(None)
                    arrived.notify()
        except Exception as error:  # re-raised by the caller below
            fail(-1 - width, error)  # below every lane's ``setup`` error
        finally:
            with arrived:
                producing = False
                arrived.notify_all()

    def lane(number: int) -> None:
        outer, _lane.active = in_lane(), True
        index = -1 - number  # where a ``setup`` error sorts
        try:
            if number == 0 and streamed:
                produce()
            state = setup(number)
            while (index := pull()) is not None:
                results[index] = work(state, queue[index])
        except Exception as error:  # re-raised by the caller below
            fail(index, error)
        finally:
            _lane.active = outer

    helpers = [
        threading.Thread(target=lane, args=(number,), name=f"lane-{number}", daemon=True)
        for number in range(1, width if streamed else min(width, len(queue)))
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
