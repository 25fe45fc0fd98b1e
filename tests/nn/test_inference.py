"""``repro.nn.inference()``: forwards that keep no backward cache."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn import Linear, inference


def _keeps_cache(layer: Linear) -> bool:
    layer._cache = None
    layer(np.ones((1, 3), dtype=np.float32))
    return layer._cache is not None


def test_inference_mode_is_per_thread():
    layer = Linear(3, 2, rng=np.random.default_rng(0))
    seen = {}
    inside, done = threading.Event(), threading.Event()

    def other_thread() -> None:
        inside.wait(timeout=60)
        seen["other"] = _keeps_cache(Linear(3, 2, rng=np.random.default_rng(1)))
        done.set()

    thread = threading.Thread(target=other_thread)
    thread.start()
    with inference():
        inside.set()
        done.wait(timeout=60)
        seen["here"] = _keeps_cache(layer)
    thread.join()
    assert seen == {"other": True, "here": False}


def test_inference_mode_nests_and_is_restored_on_exit():
    layer = Linear(3, 2, rng=np.random.default_rng(0))
    assert _keeps_cache(layer)
    with inference():
        with inference():
            assert not _keeps_cache(layer)
        assert not _keeps_cache(layer)  # the inner exit leaves the outer block on
    assert _keeps_cache(layer)


def test_inference_mode_is_restored_when_the_body_raises():
    layer = Linear(3, 2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="body"):
        with inference():
            raise ValueError("body")
    assert _keeps_cache(layer)
    with inference():
        with pytest.raises(ValueError, match="inner"):
            with inference():
                raise ValueError("inner")
        assert not _keeps_cache(layer)
