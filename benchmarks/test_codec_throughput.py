"""Micro-benchmarks of the individual codecs on model-weight data.

These are conventional pytest-benchmark timings (multiple rounds) of the
compression hot paths, complementing the table/figure harnesses: they are
what you would watch when optimising a codec implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    ErrorBoundMode,
    get_lossless_compressor,
    get_lossy_compressor,
)
from repro.core import FedSZCompressor
from repro.experiments import model_weight_sample, pretrained_like_state_dict

_SAMPLE = model_weight_sample("alexnet", num_values=250_000, seed=7)


@pytest.mark.parametrize("compressor", ["sz2", "sz3", "szx", "zfp"])
def test_lossy_compression_throughput(benchmark, compressor):
    codec = get_lossy_compressor(compressor)
    payload = benchmark(codec.compress, _SAMPLE, 1e-2, ErrorBoundMode.REL)
    assert len(payload) < _SAMPLE.nbytes


@pytest.mark.parametrize("compressor", ["sz2", "sz3", "szx", "zfp"])
def test_lossy_decompression_throughput(benchmark, compressor):
    codec = get_lossy_compressor(compressor)
    payload = codec.compress(_SAMPLE, 1e-2, ErrorBoundMode.REL)
    restored = benchmark(codec.decompress, payload)
    assert restored.shape == _SAMPLE.shape


@pytest.mark.parametrize("codec_name", ["blosc-lz", "zstd", "gzip"])
def test_lossless_compression_throughput(benchmark, codec_name):
    data = np.random.default_rng(0).normal(0, 1, 200_000).astype(np.float32).tobytes()
    codec = get_lossless_compressor(codec_name)
    payload = benchmark(codec.compress, data)
    assert codec.decompress(payload) == data


def test_fedsz_state_dict_compression_throughput(benchmark):
    state = pretrained_like_state_dict("mobilenetv2", "cifar10", max_elements_per_tensor=100_000, seed=3)
    codec = FedSZCompressor(error_bound=1e-2)
    payload = benchmark(codec.compress, state)
    assert codec.report().ratio > 3.0
    assert len(payload) < sum(v.nbytes for v in state.values())
