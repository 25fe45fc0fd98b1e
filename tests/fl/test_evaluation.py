"""``evaluate_model`` runs under inference mode: same numbers, no activations kept."""

from __future__ import annotations

import os
import threading
import tracemalloc

import numpy as np
import pytest

from repro.fl.server import evaluate_model
from repro.nn import functional as F
from repro.nn.models import create_model

BATCH = 64


def _inputs(rows: int = 128):
    generator = np.random.default_rng(0)
    images = generator.normal(size=(rows, 3, 16, 16)).astype(np.float32)
    return images, generator.integers(0, 10, rows)


def _off_the_main_thread(call):
    """``call()`` on a helper thread, where ``pool_width`` is 1: one lane."""
    result = {}

    def run() -> None:
        try:
            result["value"] = call()
        except Exception as error:  # re-raised on the calling thread
            result["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if "error" in result:
        raise result["error"]
    return result["value"]


def _holds_no_cache(*models) -> bool:
    return all(module._cache is None for model in models for _, module in model.named_modules())


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("name", ["alexnet", "mobilenetv2", "resnet18"])
def test_evaluation_equals_a_plain_eval_forward_bit_for_bit(name, lanes, monkeypatch):
    model = create_model(name, "tiny", num_classes=10, seed=3)
    images, labels = _inputs()
    model.eval()
    logits = np.concatenate([model(images[start : start + BATCH]) for start in (0, BATCH)])
    expected = (F.cross_entropy(logits, labels)[0], F.accuracy(logits, labels))
    replicas = []
    if lanes == 1:
        result = _off_the_main_thread(lambda: evaluate_model(model, images, labels, BATCH, replicas))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: lanes)
        result = evaluate_model(model, images, labels, BATCH, replicas)
    assert len(replicas) == lanes - 1
    assert result == expected
    assert _holds_no_cache(model, *replicas)


def test_one_lane_evaluation_peaks_at_one_layers_working_set():
    model = create_model("mobilenetv2", "tiny", num_classes=10, seed=3)
    images, labels = _inputs()

    def traced():
        tracemalloc.start()
        try:
            evaluate_model(model, images, labels, BATCH)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Keeping every layer's activations peaked at ~55 MB and left ~46 MB behind.
    assert _off_the_main_thread(traced) <= 20 * 2**20
    assert _holds_no_cache(model)
