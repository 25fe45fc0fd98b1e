"""Acceptance tests for the discrete-event fleet engine.

Five guarantees are pinned here:

* **executor equivalence** — at 256 clients, serial and process runs
  produce bit-identical ``TrainingHistory.deterministic_rows()`` and final
  weights, for every scheduler (sync / semi-sync / async, each under its
  natural fleet preset);
* **close-of-round rules** — each round's recorded ``aggregated`` /
  ``staleness`` / ``weight`` / ``simulated_round_seconds`` equal what a
  test-side oracle (``tests/_oracles.py``: three small pure functions, one
  per scheduler) derives from the same round's per-client turnarounds;
* **crash-safe equivalence** — a kill + resume lands on exactly the
  uninterrupted run;
* **O(events) rounds** — per-round client touches scale with participants +
  availability transitions, not fleet size: a 4x larger fleet with the same
  participant count produces identical steady-state touch counts, and
  resident state (materialised clients, links, models) stays bounded by
  activity;
* **corrupted uploads** — a :class:`~repro.fl.scenarios.CorruptedUpload`
  fault trains and transmits, the server's checksum frame rejects the
  payload, and the accounting (dropped update, zero accepted bytes) is
  bit-identical across both executors.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from _oracles import ORACLES
from repro.core import FedSZCompressor
from repro.data import load_dataset
from repro.fl import (
    FederatedRuntime,
    FLConfig,
    ProcessParallelExecutor,
    SerialExecutor,
    build_fleet_runtime,
    get_scenario,
)
from repro.fl.scenarios import CorruptedUploadSchedule, FullParticipation
from repro.nn.models import create_model

PRESETS = ["uniform-edge", "diurnal", "flash-crowd"]  # sync / semi-sync / async
EXECUTORS = ["serial", "process"]


@pytest.fixture(scope="module")
def fleet_data():
    full = load_dataset("cifar10", num_samples=640, image_size=8, seed=0)
    return full.split(0.75, seed=1)


def _make_executor(name: str):
    if name == "serial":
        return SerialExecutor()
    return ProcessParallelExecutor(max_workers=4)


def _model_fn():
    return create_model("alexnet", "tiny", num_classes=10, seed=0)


def _build_fleet(fleet_data, preset_name: str, executor_name: str):
    train, validation = fleet_data
    overrides = {}
    if preset_name == "flash-crowd":
        # Async arrival order sorts on turnaround, which includes *measured*
        # train seconds.  The preset cycles four bandwidths, so same-bandwidth
        # clients would be ordered by wall-clock noise; distinct per-client
        # bandwidths separate every pair by >= ~10ms of simulated transfer,
        # making the ordering a pure function of the config.
        overrides["bandwidths_mbps"] = tuple(0.2 + 0.01 * i for i in range(256))
    preset = get_scenario(preset_name, num_clients=256, rounds=2, **overrides)
    return build_fleet_runtime(
        preset,
        _model_fn,
        train,
        validation,
        codec=None,
        executor=_make_executor(executor_name),
        seed=7,
        batch_size=16,
    )


def _run_closed(runtime, *args, **kwargs):
    try:
        return runtime.run(*args, **kwargs)
    finally:
        runtime.close()


def _assert_states_identical(reference, other):
    reference_state = reference.server.global_state()
    other_state = other.server.global_state()
    assert reference_state.keys() == other_state.keys()
    for name in reference_state:
        np.testing.assert_array_equal(
            reference_state[name], other_state[name], err_msg=name
        )


@pytest.fixture(scope="module")
def finished_fleet(fleet_data):
    """``finished_fleet(preset, executor)``: that 2-round run, made once."""

    @functools.cache
    def finished(preset_name, executor_name):
        runtime = _build_fleet(fleet_data, preset_name, executor_name)
        _run_closed(runtime)
        return runtime

    return finished


@pytest.mark.parametrize("preset_name", PRESETS)
def test_event_engine_matches_legacy_loop_across_executors(finished_fleet, preset_name):
    """256-client preset: serial and process executors agree on the
    deterministic rows and on the final weights, bit for bit."""
    serial = finished_fleet(preset_name, "serial")
    rows = serial.history.deterministic_rows()
    assert len(rows) == 2
    other = finished_fleet(preset_name, "process")
    assert other.history.deterministic_rows() == rows
    _assert_states_identical(serial, other)


@pytest.mark.parametrize("executor_name", EXECUTORS)
@pytest.mark.parametrize("preset_name", PRESETS)
def test_recorded_rounds_match_the_scheduler_oracle(finished_fleet, preset_name, executor_name):
    runtime = finished_fleet(preset_name, executor_name)
    oracle = ORACLES[runtime.scheduler.name]
    for record in runtime.history.records:
        assert record.client_stats, "an empty round would pin nothing"
        aggregated, seconds = oracle(record.client_stats, runtime.scheduler)
        recorded = {
            s.client_id: (s.staleness, s.weight) for s in record.client_stats if s.aggregated
        }
        assert recorded == aggregated, record.round_index
        assert record.simulated_round_seconds == seconds, record.round_index


def test_event_engine_resume_is_bit_identical(fleet_data, tmp_path):
    """Kill after 2 of 4 rounds, resume with a fresh engine: the resumed run
    must land on the uninterrupted run exactly (availability rebuilds from
    the mask at the discontinuity, then continues incrementally)."""
    train, validation = fleet_data
    preset = get_scenario("diurnal", num_clients=256, rounds=4)

    def build():
        return build_fleet_runtime(
            preset, _model_fn, train, validation, codec=None, seed=7, batch_size=16
        )

    uninterrupted = build()
    rows = _run_closed(uninterrupted).deterministic_rows()

    first = build()
    _run_closed(first, 2, checkpoint_dir=tmp_path)
    resumed = build()
    history = _run_closed(resumed, 4, checkpoint_dir=tmp_path, resume=True)
    assert history.deterministic_rows() == rows
    _assert_states_identical(uninterrupted, resumed)


def test_round_cost_scales_with_events_not_fleet_size():
    """Same participant count at 2048 vs 8192 clients: after the round-0
    arrival burst, per-round touches are identical and resident state stays
    bounded by activity — the O(events) claim, asserted on counters."""
    full = load_dataset("cifar10", num_samples=10_000, image_size=8, seed=0)
    train, validation = full.split(0.9, seed=1)
    participants = 32
    touches = {}
    for fleet_size in (2048, 8192):
        runtime = FederatedRuntime(
            _model_fn,
            train,
            validation,
            FLConfig(
                num_clients=fleet_size,
                rounds=3,
                batch_size=16,
                local_epochs=1,
                client_fraction=participants / fleet_size,
                seed=3,
            ),
            schedule=FullParticipation(),
        )
        _run_closed(runtime)
        stats = runtime.engine.stats
        assert stats.rounds_run == 3
        assert stats.participants == 3 * participants
        # Round 0 pays the full-fleet arrival burst; steady state touches
        # only the participants.
        assert stats.round_touches[0] == participants + fleet_size
        touches[fleet_size] = stats.round_touches[1:]
        assert touches[fleet_size] == [participants, participants]
        # Resident state is bounded by activity, not the census.
        assert runtime.clients.materialized_count <= 3 * participants
        assert len(runtime.transport.links) <= 3 * participants
        assert runtime.model_pool.created == 1
    assert touches[2048] == touches[8192]


def test_workers_cut_their_own_shards_at_2048_clients():
    """Serial == process at 2048 clients over lazy shards and seeds.

    The worker pool forks inside round 0's dispatch, after round 0's
    participants were sampled: every later participant's shard and seed exist
    nowhere in a worker's inherited memory, so bit-identical rounds mean each
    worker cut and derived its own from the lazy sequences the fork carried.
    """
    full = load_dataset("cifar10", num_samples=2_400, image_size=8, seed=0)
    train, validation = full.split(2_048 / 2_400, seed=1)
    finished = {}
    for executor_name in ("serial", "process"):
        runtime = build_fleet_runtime(
            get_scenario("mega-fleet", num_clients=2_048, rounds=3, client_fraction=16 / 2_048),
            _model_fn,
            train,
            validation,
            codec=None,
            executor=_make_executor(executor_name),
            seed=5,
            batch_size=16,
        )
        assert runtime.clients.datasets.materialized_count == 0
        _run_closed(runtime)
        assert 0 < runtime.clients.materialized_count < 3 * 16 + 1
        assert runtime.clients.datasets.materialized_count == runtime.clients.materialized_count
        finished[executor_name] = runtime
    context = finished["process"].executor._context
    assert context.datasets is finished["process"].clients.datasets  # carried, not copied
    assert context.seeds is finished["process"].clients.seeds
    assert (
        finished["process"].history.deterministic_rows()
        == finished["serial"].history.deterministic_rows()
    )
    _assert_states_identical(finished["serial"], finished["process"])


@pytest.mark.parametrize("codec_fn", [lambda: None, lambda: FedSZCompressor(error_bound=1e-2)],
                         ids=["raw", "fedsz"])
def test_corrupted_upload_is_rejected_identically_across_executors(codec_fn):
    """A corrupted client trains and occupies its link, but the checksum
    frame rejects the payload: dropped update, zero accepted bytes, and
    bit-identical accounting under serial and process execution."""
    full = load_dataset("cifar10", num_samples=160, image_size=8, seed=0)
    train, validation = full.split(0.75, seed=1)
    faults = CorruptedUploadSchedule({0: [1], 1: [3]})

    def run(executor_name):
        runtime = FederatedRuntime(
            _model_fn,
            train,
            validation,
            FLConfig(
                num_clients=6, rounds=2, batch_size=16, local_epochs=1,
                client_fraction=1.0, seed=3,
            ),
            codec=codec_fn(),
            executor=_make_executor(executor_name),
            client_faults=faults,
        )
        history = _run_closed(runtime)
        return history

    reference = run("serial")
    rows = reference.deterministic_rows()
    round_zero = reference.records[0]
    corrupted = [s for s in round_zero.client_stats if s.client_id == 1][0]
    assert not corrupted.delivered
    assert corrupted.payload_nbytes > 0  # the wire bytes travelled...
    assert round_zero.uplink_bytes == sum(  # ...but were never accepted
        s.payload_nbytes for s in round_zero.client_stats if s.delivered
    )
    assert round_zero.dropped_clients == 1
    assert run("process").deterministic_rows() == rows
