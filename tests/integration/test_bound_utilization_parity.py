"""Bound utilization, measured in the upload's codec half, against the old
round-end computation.

``RoundRecord.tensor_bound_utilization`` and ``ClientRoundStat.
bound_utilization`` are observational: ``history_sha256`` and
``deterministic_rows()`` leave them out, so nothing else would notice if they
drifted.  The codec half (:func:`repro.fl.transport.encode_upload`) now
measures them on whichever lane or worker decoded the upload.  This file keeps
the computation ``FederatedRuntime.finish_round`` used to run over the round's
results as the reference, runs it on the results ``finish_round`` receives,
and requires the recorded values to equal it to the bit, key order included:

* FedSZ at a REL and an ABS bound, on the serial executor at 1, 2 and 4
  lanes and the process executor, in runs with dropped, corrupted and crashed
  uploads, which carry no utilization;
* the adaptive codec, whose bound moves between rounds;
* the DP and identity codecs, which stay untracked;
* a zero-range tensor under REL: 0.0 when it arrives exact, inf when not.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.compression.base import ErrorBoundMode, resolve_error_bound
from repro.core import AdaptiveErrorBoundController, AdaptiveFedSZCompressor, FedSZCompressor
from repro.core.fedsz import IdentityCodec
from repro.data import load_dataset
from repro.fl import (
    ClientCrashSchedule,
    FederatedRuntime,
    FLConfig,
    LinkSpec,
    ProcessParallelExecutor,
    SerialExecutor,
    Transport,
)
from repro.fl.scenarios import CorruptedUploadSchedule
from repro.nn.models import create_model
from repro.privacy import DPFedSZCompressor

#: ``(executor, lanes)``: the serial executor codes on ``lanes`` lanes.
EXECUTORS = [("serial", 1), ("serial", 2), ("serial", 4), ("process", 2)]
CORRUPTED = {0: [1], 1: [4]}
CRASHED = {0: [3], 1: [0, 5]}


# ----------------------------------------------------------------------
# The reference: finish_round's computation before it moved
# ----------------------------------------------------------------------
def _reference_codec_error_bound(codec) -> tuple:
    if codec is None or hasattr(codec, "noise_scale"):
        return 0.0, ""
    bound = getattr(codec, "current_bound", None)
    if bound is not None:
        return float(bound), ErrorBoundMode.REL.name
    config = getattr(codec, "config", None)
    bound = getattr(config, "error_bound", None)
    if bound is None:
        return 0.0, ""
    mode = getattr(config, "error_bound_mode", ErrorBoundMode.REL)
    return float(bound), getattr(mode, "name", str(mode))


def _reference_bound_utilization(result, bound: float, mode: str) -> dict:
    report = getattr(result.stats, "report", None)
    lossy_names = getattr(report, "per_tensor_ratio", None)
    original = result.update.state_dict
    received = result.state
    names = lossy_names if lossy_names else original
    mode_enum = ErrorBoundMode.ABS if mode == "ABS" else ErrorBoundMode.REL
    utilization = {}
    for name in names:
        if name not in original or name not in received:
            continue
        a = np.asarray(original[name])
        b = np.asarray(received[name])
        if a.shape != b.shape or a.size == 0:
            continue
        difference = np.subtract(a, b, dtype=np.float64)
        error = float(np.abs(difference, out=difference).max())
        resolved = resolve_error_bound(a, bound, mode_enum)
        if resolved > 0.0:
            utilization[name] = error / resolved
        else:
            utilization[name] = 0.0 if error == 0.0 else float("inf")
    return utilization


def _reference_round(codec, results) -> tuple:
    """``(per-client max, per-tensor max)`` as ``finish_round`` computed them."""
    error_bound, bound_mode = _reference_codec_error_bound(codec)
    client_utilization, tensor_utilization = {}, {}
    if codec is not None and error_bound > 0.0:
        for result in results:
            if not result.delivered or not result.update.state_dict:
                continue
            per_tensor = _reference_bound_utilization(result, error_bound, bound_mode)
            if per_tensor:
                client_utilization[result.client_id] = max(per_tensor.values())
            for name, value in per_tensor.items():
                tensor_utilization[name] = max(tensor_utilization.get(name, 0.0), value)
    return client_utilization, tensor_utilization


def _bits(values) -> list:
    """Floats as their IEEE-754 bits, in order: equal means bit-equal."""
    return [(key, struct.pack("<d", value)) for key, value in values]


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=250, image_size=8, seed=0)
    return full.split(0.48, seed=1)  # 120 train, 130 validation


def _with_constant_buffer():
    model = create_model("mobilenetv2", "tiny", num_classes=10, seed=7)
    model.register_buffer("frozen_weight", np.full(2048, 0.5, dtype=np.float32))  # lossy: a weight
    return model


def _executor(name: str, lanes: int, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: lanes)
    if name == "serial":
        return SerialExecutor()
    return ProcessParallelExecutor(max_workers=lanes)


def _run(data, executor, codec, rounds=2, after_round=None, faults=True):
    """Run ``rounds`` rounds; per round, the record and the reference."""
    train, val = data
    schedules = (CorruptedUploadSchedule(CORRUPTED), ClientCrashSchedule(CRASHED))
    runtime = FederatedRuntime(
        _with_constant_buffer,
        train,
        val,
        FLConfig(num_clients=6, rounds=rounds, batch_size=16, local_epochs=1, seed=3),
        codec=codec,
        executor=executor,
        transport=Transport.heterogeneous(
            [LinkSpec(bandwidth_mbps=bw, dropout_probability=0.3 if faults else 0.0)
             for bw in (2.0, 5.0, 10.0, 25.0, 50.0, 100.0)]
        ),
        client_faults=_Faults(*schedules) if faults else None,
    )
    rounds_seen = []
    finish_round = runtime.finish_round

    def checked_finish_round(context, results, *args, **kwargs):
        reference = _reference_round(runtime.codec, results)
        record = finish_round(context, results, *args, **kwargs)
        rounds_seen.append((record, reference, results))
        if after_round is not None:
            after_round(record)
        return record

    runtime.finish_round = checked_finish_round
    try:
        runtime.run(rounds=rounds)
    finally:
        runtime.close()
    return rounds_seen


class _Faults:
    """First fault any of the given schedules has for a (round, client)."""

    def __init__(self, *schedules) -> None:
        self._schedules = schedules

    def fault_for(self, round_index: int, client_id: int):
        for schedule in self._schedules:
            fault = schedule.fault_for(round_index, client_id)
            if fault is not None:
                return fault
        return None


def _assert_matches_reference(rounds_seen, faults=True) -> list:
    """Bit-equality per round; returns the records' per-tensor maps."""
    outcomes = set()
    for record, (clients, tensors), results in rounds_seen:
        assert _bits(record.tensor_bound_utilization.items()) == _bits(tensors.items())
        assert _bits((s.client_id, s.bound_utilization) for s in record.client_stats) == _bits(
            (r.client_id, clients.get(r.client_id, 0.0)) for r in results
        )
        for result in results:
            if not result.delivered:  # dropped, corrupted or crashed
                assert result.stats.bound_utilization == {}
                crashed = result.client_id in CRASHED.get(record.round_index, ())
                corrupted = result.client_id in CORRUPTED.get(record.round_index, ())
                outcomes.add("crashed" if crashed else "corrupted" if corrupted else "dropped")
            else:
                outcomes.add("delivered")
    if faults:
        assert outcomes == {"crashed", "corrupted", "dropped", "delivered"}
    return [record.tensor_bound_utilization for record, _, _ in rounds_seen]


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bound,mode", [(1e-2, ErrorBoundMode.REL), (2e-3, ErrorBoundMode.ABS)], ids=["rel", "abs"]
)
def test_fedsz_utilization_is_the_round_end_reference_on_every_executor(
    data, bound, mode, monkeypatch
):
    by_executor = {}
    for name, lanes in EXECUTORS:
        codec = FedSZCompressor(error_bound=bound, error_bound_mode=mode)
        rounds_seen = _run(data, _executor(name, lanes, monkeypatch), codec)
        by_executor[name, lanes] = _assert_matches_reference(rounds_seen)
        assert len(rounds_seen[0][0].tensor_bound_utilization) > 1
    first = by_executor[EXECUTORS[0]]
    assert first[0]["frozen_weight"] == 0.0  # zero-range, and SZ2 sends it exact
    for key, per_round in by_executor.items():
        assert [_bits(u.items()) for u in per_round] == [_bits(u.items()) for u in first], key


def test_the_adaptive_codec_is_measured_at_the_bound_it_compressed_at(data, monkeypatch):
    """The bound doubles after every round (patience 1, accuracy kept up), so
    each round's utilization is against a different ``current_bound``."""
    codec = AdaptiveFedSZCompressor(
        AdaptiveErrorBoundController(initial_bound=1e-3, patience=1, tolerance=1.0)
    )
    rounds_seen = _run(
        data,
        _executor("serial", 2, monkeypatch),
        codec,
        rounds=3,
        after_round=lambda record: codec.observe_accuracy(record.global_accuracy),
    )
    _assert_matches_reference(rounds_seen)
    assert [record.error_bound for record, _, _ in rounds_seen] == [1e-3, 2e-3, 4e-3]


@pytest.mark.parametrize(
    "codec_fn,executors",
    [
        (lambda: DPFedSZCompressor(epsilon_per_round=10.0, seed=4), ["serial"]),
        (IdentityCodec, ["serial", "process"]),
    ],
    ids=["dp", "identity"],
)
def test_dp_and_identity_codecs_stay_untracked(data, codec_fn, executors, monkeypatch):
    for name in executors:
        rounds_seen = _run(data, _executor(name, 2, monkeypatch), codec_fn())
        _assert_matches_reference(rounds_seen)
        for record, _, results in rounds_seen:
            assert record.error_bound == 0.0 and record.tensor_bound_utilization == {}
            assert {s.bound_utilization for s in record.client_stats} == {0.0}
            assert all(result.stats.bound_utilization == {} for result in results)


class _OffsetConstant(FedSZCompressor):
    """FedSZ whose server side receives the zero-range tensor moved by 1e-3."""

    def decompress(self, payload):
        restored = super().decompress(payload)
        restored["frozen_weight"] = restored["frozen_weight"] + np.float32(1e-3)
        return restored


@pytest.mark.parametrize("name,lanes", [("serial", 2), ("process", 2)])
def test_an_inexact_zero_range_tensor_is_infinitely_over_a_rel_bound(
    data, name, lanes, monkeypatch
):
    codec = _OffsetConstant(error_bound=1e-2)
    rounds_seen = _run(data, _executor(name, lanes, monkeypatch), codec, faults=False)
    for utilization in _assert_matches_reference(rounds_seen, faults=False):
        assert utilization["frozen_weight"] == float("inf")
        assert all(np.isfinite(v) for key, v in utilization.items() if key != "frozen_weight")
