"""``run_lanes``: the caller as lane 0, item order, the serial error, no thread left."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.utils.pools import in_lane, pool_width, run_lanes
from repro.utils.timing import lane_clock

WIDTHS = pytest.mark.parametrize("width", [1, 2, 4])


@WIDTHS
def test_results_come_back_in_item_order_and_the_caller_runs_lane_0(width):
    built = {}

    def setup(lane):
        built[lane] = threading.current_thread()
        return lane

    def work(lane, item):
        time.sleep(0.001 * (item % 3))  # lanes finish out of order
        return item * item

    before = threading.active_count()
    assert run_lanes(list(range(20)), work, width, setup) == [item * item for item in range(20)]
    assert threading.active_count() == before
    assert sorted(built) == list(range(width))  # each lane built its state once
    assert built[0] is threading.main_thread()
    helpers = [built[lane] for lane in range(1, width)]
    assert threading.main_thread() not in helpers and len(set(helpers)) == width - 1


@WIDTHS
def test_inside_a_lane_no_pool_starts_and_the_clock_is_the_threads(width):
    seen = []

    def look(*_):
        seen.append((threading.current_thread(), in_lane(), pool_width(8), lane_clock()))

    assert pool_width(8, cap=8) == 8 and lane_clock() is time.perf_counter
    run_lanes(list(range(8)), look, width, look)
    assert threading.main_thread() in {entry[0] for entry in seen}  # lane 0's setup at least
    assert {entry[1:] for entry in seen} == {(True, 1, time.thread_time)}
    assert not in_lane() and lane_clock() is time.perf_counter  # restored on the caller


@WIDTHS
def test_the_lowest_index_error_is_raised_after_every_lane_joined(width):
    """Items 3 and 7 fail.  On two or more lanes item 3 fails only once item 7
    has, so the first error to happen is not the one raised: the caller sees
    item 3's, as the serial loop (which never reaches item 7) does."""
    failed = threading.Event()
    finished = []

    def work(_, item):
        if item == 7:
            failed.set()
            raise KeyError(item)
        if item == 3:
            if width > 1:
                assert failed.wait(timeout=5.0)
            raise ValueError(item)
        time.sleep(0.002)
        finished.append(item)
        return item

    before = threading.active_count()
    with pytest.raises(ValueError, match="3"):
        run_lanes(list(range(12)), work, width, lambda lane: None)
    assert threading.active_count() == before
    assert {0, 1, 2} <= set(finished)  # every item below the error ran


def test_a_setup_error_is_raised_and_the_lanes_joined():
    def setup(lane):
        if lane == 1:
            raise RuntimeError("no clone for lane 1")
        return lane

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="lane 1"):
        run_lanes(list(range(6)), lambda lane, item: item, 2, setup)
    assert threading.active_count() == before


def _assert_each_item_runs_once_on_eight_lanes_under_preemption(items) -> None:
    taken = {}

    def setup(lane):
        taken[lane] = []
        return taken[lane]

    def work(mine, item):
        mine.append(item)
        return -item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = run_lanes(items, work, 8, setup)
    finally:
        sys.setswitchinterval(interval)
    assert results == [-item for item in range(5000)]
    assert sorted(item for mine in taken.values() for item in mine) == list(range(5000))


def test_every_item_runs_once_on_more_lanes_than_cores_under_preemption():
    """Eight lanes switching every 10 µs: the shared pull counter hands each
    item to exactly one lane, and each result lands in its own slot."""
    _assert_each_item_runs_once_on_eight_lanes_under_preemption(list(range(5000)))


def test_no_more_lanes_than_items():
    lanes = []
    assert run_lanes(["only"], lambda lane, item: item, 4, lanes.append) == ["only"]
    assert lanes == [0]
    assert run_lanes([], lambda lane, item: item, 4, lanes.append) == []


@WIDTHS
def test_an_iterator_is_worked_by_the_helpers_while_the_caller_produces_it(width):
    """On two or more lanes the caller produces item ``k`` only once a helper
    has worked item ``k - 1``, which it could not if the helpers waited for
    the iterator's end; on one lane the caller produces, then works, all."""
    done = [threading.Event() for _ in range(6)]

    def produce():
        for item in range(6):
            if width > 1 and item:
                assert done[item - 1].wait(timeout=5.0)
            yield item

    def work(lane, item):
        done[item].set()
        return item, lane

    before = threading.active_count()
    results = run_lanes(produce(), work, width, lambda lane: lane)
    assert threading.active_count() == before
    assert [item for item, _ in results] == list(range(6))
    early = {lane for _, lane in results[:5]}  # item 5 may also go to the caller
    assert (early == {0}) if width == 1 else (0 not in early)


@WIDTHS
def test_an_error_producing_the_items_wins_once_every_lane_joined(width):
    """Item 1 fails on a helper while the caller is still producing; the
    caller then fails producing item 3.  Its error is the one raised — the
    serial loop, producing every item first, would never have worked one —
    after every lane has joined."""
    failed = threading.Event()
    worked = []

    def produce():
        yield from range(3)
        if width > 1:
            assert failed.wait(timeout=5.0)
        raise LookupError("cannot produce item 3")

    def work(_, item):
        worked.append(item)
        if item == 1:
            failed.set()
            raise ValueError(item)
        return item

    before = threading.active_count()
    with pytest.raises(LookupError, match="item 3"):
        run_lanes(produce(), work, width, lambda lane: None)
    assert threading.active_count() == before
    if width == 1:
        assert worked == []
    else:
        assert {0, 1} <= set(worked) <= {0, 1, 2}


def test_every_streamed_item_runs_once_on_more_lanes_than_cores_under_preemption():
    """Eight lanes switching every 10 µs while the caller still produces the
    items: each item runs once and its result lands in its own slot."""
    _assert_each_item_runs_once_on_eight_lanes_under_preemption(iter(range(5000)))
