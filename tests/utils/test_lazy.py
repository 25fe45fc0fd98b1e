"""Tests for the build-on-first-access sequence behind shards, seeds and clients."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.utils.lazy import LazySequence


def test_lazy_sequence_equals_the_eagerly_built_list():
    calls = []

    def build(index):
        calls.append(index)
        return index * index

    lazy = LazySequence(6, build)
    eager = [index * index for index in range(6)]
    assert len(lazy) == 6 and lazy.materialized_count == 0 and calls == []
    assert lazy[4] == 16 and lazy[-2] == 16 and lazy[4] == 16
    assert calls == [4]  # built once, then cached; -2 is the same item
    assert lazy[1:5:2] == [1, 9]
    assert lazy.materialized_items() == [(1, 1), (3, 9), (4, 16)]
    assert list(lazy) == eager and lazy == eager and eager == lazy
    assert sorted(calls) == list(range(6))  # never rebuilt
    assert lazy != eager[:-1] and lazy != [*eager[:-1], -1] and lazy != 36
    for index in (6, -7):
        with pytest.raises(IndexError):
            lazy[index]
    with pytest.raises(TypeError):
        hash(lazy)


def test_lazy_sequence_does_not_keep_itself_alive():
    """A sequence built from a closure over its inputs is freed by reference
    counting alone — what lets a dropped runtime release its dataset at once."""

    class Payload:
        pass

    payload = Payload()
    lazy = LazySequence(3, lambda index: (payload, index))
    assert lazy[1] == (payload, 1)
    alive = weakref.ref(payload)
    gc.disable()
    try:
        del lazy, payload
        assert alive() is None
    finally:
        gc.enable()
