"""Tests for the scheduler / executor / transport layers of the FL runtime."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import FedSZCompressor, FedSZConfig, IdentityCodec
from repro.data import load_dataset
from repro.fl import (
    AsynchronousScheduler,
    FederatedRuntime,
    FLConfig,
    LinkSpec,
    ProcessParallelExecutor,
    SemiSynchronousScheduler,
    ServerCrashSchedule,
    SerialExecutor,
    SynchronousScheduler,
    Transport,
    build_executor,
    edge_fleet_specs,
    get_scheduler,
    mix_states,
)
from repro.fl.transport import ClientLink
from repro.nn.models import create_model


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=240, image_size=8, seed=0)
    return full.split(0.75, seed=1)


@pytest.fixture
def model_fn():
    return lambda: create_model("resnet50", "tiny", num_classes=10, seed=9)


@pytest.fixture
def config():
    return FLConfig(num_clients=4, rounds=2, batch_size=16, seed=3)


# ----------------------------------------------------------------------
# Transport layer
# ----------------------------------------------------------------------
def test_link_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_mbps=0.0)
    with pytest.raises(ValueError):
        LinkSpec(latency_seconds=-1.0)
    with pytest.raises(ValueError):
        LinkSpec(straggler_factor=0.0)
    with pytest.raises(ValueError):
        LinkSpec(dropout_probability=1.0)
    # NaN fails every comparison, so ``x <= 0`` checks let it (and inf) through
    # into transfer seconds, turnarounds and semi-sync deadline decisions.
    for field in ("bandwidth_mbps", "latency_seconds", "straggler_factor"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field.split("_")[0]):
                LinkSpec(**{field: value})
    # Links never sleep: the field that asked them to is gone, not ignored.
    with pytest.raises(TypeError, match="real_sleep"):
        LinkSpec(real_sleep=True)
    # An unknown device fails here, not on the first lazy uplink of a round.
    with pytest.raises(ValueError, match="rpi6"):
        LinkSpec(device="rpi6")
    assert LinkSpec(device="rpi5").device_profile is LinkSpec(device="raspberry-pi-5").device_profile
    assert LinkSpec(device="local").device_profile is None
    with pytest.raises(ValueError):
        FLConfig(bandwidth_mbps=float("nan"))


def test_straggler_factor_scales_transfer_time():
    fast = ClientLink(0, LinkSpec(bandwidth_mbps=10.0))
    slow = ClientLink(1, LinkSpec(bandwidth_mbps=10.0, straggler_factor=8.0))
    nbytes = 1_000_000
    assert slow.spec.transmission_seconds(nbytes) == pytest.approx(
        8.0 * fast.spec.transmission_seconds(nbytes)
    )
    record = slow.send(nbytes)
    assert record.seconds == slow.spec.transmission_seconds(nbytes)


def test_dropout_stream_is_seeded_per_link():
    rolls_a = [ClientLink(0, LinkSpec(dropout_probability=0.5), seed=7).roll_dropout() for _ in range(8)]
    rolls_b = [ClientLink(0, LinkSpec(dropout_probability=0.5), seed=7).roll_dropout() for _ in range(8)]
    assert rolls_a == rolls_b
    link = ClientLink(0, LinkSpec(dropout_probability=0.5), seed=7)
    sequence = [link.roll_dropout() for _ in range(32)]
    assert any(sequence) and not all(sequence)


def test_homogeneous_transport_shares_one_channel():
    transport = Transport.homogeneous(bandwidth_mbps=10.0)
    transport.bind(3, seed=0)
    assert transport.is_homogeneous
    assert transport.channel is not None
    # Links are lazy: touching each client materialises its link on demand.
    links = [transport.uplink(client_id) for client_id in range(3)]
    assert all(link.channel is transport.channel for link in links)


def test_homogeneous_transport_takes_no_real_sleep():
    """Links model Eqn. 1's turnaround and never sleep, so the option that
    made a homogeneous transport sleep is gone, not ignored."""
    with pytest.raises(TypeError, match="real_sleep"):
        Transport.homogeneous(bandwidth_mbps=10.0, real_sleep=True)


def test_heterogeneous_transport_has_independent_links():
    specs = edge_fleet_specs(3, bandwidths_mbps=(5.0, 50.0))
    transport = Transport.heterogeneous(specs)
    transport.bind(3, seed=0)
    assert not transport.is_homogeneous
    assert transport.channel is None
    assert transport.links == {}  # nothing materialised until first touch
    links = [transport.uplink(client_id) for client_id in range(3)]
    assert len({id(link.channel) for link in links}) == 3
    assert links[0].spec.bandwidth_mbps == 5.0
    assert links[1].spec.bandwidth_mbps == 50.0
    assert links[2].spec.bandwidth_mbps == 5.0


def test_spec_fingerprint_is_what_existing_checkpoints_recorded():
    """``RunCheckpoint.transport`` is this dict; the literals were recorded
    before ``LinkSpec`` moved to ``repro.network`` and grew methods, so a
    checkpoint written then still matches (field names, order, defaults).
    Those checkpoints also carry the since-removed ``real_sleep`` key, which
    resume drops before comparing (``tests/fl/test_checkpoint.py``)."""
    default = {
        "bandwidth_mbps": 10.0, "latency_seconds": 0.0, "straggler_factor": 1.0,
        "dropout_probability": 0.0, "device": None,
    }
    assert Transport.homogeneous(bandwidth_mbps=10.0).spec_fingerprint() == {
        "kind": "homogeneous", "spec": default,
    }
    fleet = edge_fleet_specs(
        2, straggler_ids=(1,), dropout_probability=0.1, device="raspberry-pi-5"
    )
    edge = {**default, "latency_seconds": 0.01, "dropout_probability": 0.1,
            "device": "raspberry-pi-5"}
    fingerprint = Transport.heterogeneous(fleet).spec_fingerprint()
    assert fingerprint == {
        "kind": "heterogeneous",
        "specs": [
            {**edge, "bandwidth_mbps": 5.0},
            {**edge, "bandwidth_mbps": 10.0, "straggler_factor": 10.0},
        ],
    }
    assert list(fingerprint["specs"][0]) == list(default)
    assert Transport.heterogeneous([LinkSpec()], cycle=True).spec_fingerprint() == {
        "kind": "heterogeneous-cycle", "specs": [default],
    }


def test_transport_rebind_restarts_link_streams():
    """Reusing one transport across runtimes must not continue stale state:
    rebinding rebuilds the links, so dropout streams restart from the seed."""
    transport = Transport.heterogeneous([LinkSpec(dropout_probability=0.5)] * 2)
    transport.bind(2, seed=9)
    first = [transport.uplink(0).roll_dropout() for _ in range(6)]
    transport.bind(2, seed=9)
    second = [transport.uplink(0).roll_dropout() for _ in range(6)]
    assert first == second


def test_heterogeneous_transport_rejects_wrong_spec_count():
    transport = Transport.heterogeneous([LinkSpec(), LinkSpec()])
    with pytest.raises(ValueError):
        transport.bind(3, seed=0)


def test_edge_fleet_specs_straggler_and_validation():
    specs = edge_fleet_specs(4, straggler_ids=(2,), straggler_factor=10.0)
    assert [spec.straggler_factor for spec in specs] == [1.0, 1.0, 10.0, 1.0]
    with pytest.raises(ValueError):
        edge_fleet_specs(0)


def test_link_estimate_upload_matches_network_model():
    from repro.network import RASPBERRY_PI_5
    from repro.network import LinkSpec as NetworkLinkSpec

    assert LinkSpec is NetworkLinkSpec  # one class, importable from both layers
    link = ClientLink(0, LinkSpec(bandwidth_mbps=10.0, device="raspberry-pi-5"))
    estimate = link.spec.estimate_upload(
        1_000_000, 100_000, compressor="sz2", error_bound=1e-2
    )
    assert estimate.compress_seconds == RASPBERRY_PI_5.compression_seconds("sz2", 1_000_000, 1e-2)
    assert estimate.total_seconds == (
        estimate.compress_seconds
        + RASPBERRY_PI_5.decompression_seconds("sz2", 1_000_000, 1e-2)
        + link.send(100_000).seconds
    )


# ----------------------------------------------------------------------
# Executor layer
# ----------------------------------------------------------------------
def _deterministic_fields(history):
    return [
        (
            record.global_accuracy,
            record.global_loss,
            record.mean_client_loss,
            record.mean_client_accuracy,
            record.uplink_bytes,
            record.uplink_seconds,
            record.mean_compression_ratio,
            record.downlink_bytes,
            record.downlink_seconds,
            record.participating_clients,
            tuple(
                (s.client_id, s.payload_nbytes, s.compression_ratio, s.aggregated)
                for s in record.client_stats
            ),
        )
        for record in history.records
    ]


@pytest.mark.parametrize("codec_fn", [lambda: None, lambda: FedSZCompressor(1e-2), IdentityCodec])
def test_process_executor_matches_serial_history(data, model_fn, config, codec_fn):
    """Same seeds => identical simulated outcome regardless of the executor."""
    train, val = data
    serial = FederatedRuntime(
        model_fn, train, val, config, codec=codec_fn(), executor=SerialExecutor()
    ).run()
    runtime = FederatedRuntime(
        model_fn, train, val, config, codec=codec_fn(),
        executor=ProcessParallelExecutor(max_workers=2),
    )
    try:
        process = runtime.run()
    finally:
        runtime.close()
    assert _deterministic_fields(serial) == _deterministic_fields(process)


def test_serial_lanes_keep_per_client_reports(data, model_fn, config, monkeypatch):
    """Per-lane codec clones stop last_report clobbering: every client's own
    ratio is recorded, and the runtime's codec still reports the last one."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    train, val = data
    codec = FedSZCompressor(error_bound=1e-2)
    simulation = FederatedRuntime(
        model_fn, train, val, config, codec=codec, executor=SerialExecutor()
    )
    record = simulation.run_round()
    assert len(record.client_stats) == config.num_clients
    assert all(stat.compression_ratio > 1.0 for stat in record.client_stats)
    assert codec.report().ratio == pytest.approx(
        record.client_stats[-1].compression_ratio, rel=1e-6
    )


def test_process_executor_validation():
    with pytest.raises(ValueError):
        ProcessParallelExecutor(max_workers=0)
    assert ProcessParallelExecutor().run_clients([], codec=None) == []


@pytest.mark.parametrize("removed", ["thread", "parallel"])
def test_removed_executor_names_fail_naming_the_valid_ones(removed):
    """The thread executor is gone: its names fail where they are read, and
    the message says what to use instead."""
    with pytest.raises(ValueError, match=r"'serial'.*'process'"):
        FLConfig(executor=removed)
    with pytest.raises(ValueError, match=r"'serial'.*'process'"):
        build_executor(removed)
    assert isinstance(build_executor("serial"), SerialExecutor)
    assert isinstance(build_executor("process", max_workers=2), ProcessParallelExecutor)


@pytest.mark.parametrize("name", ["serial", "process"])
def test_an_executor_name_fails_at_construction_pointing_at_the_config(data, model_fn, name):
    """Only ``FLConfig(executor=...)`` takes a name; passed as the executor
    object it fails before a round runs, not as an AttributeError inside one."""
    from repro.fl import build_fleet_runtime

    train, val = data
    with pytest.raises(TypeError, match=r"FLConfig\(executor=\.\.\.\)"):
        FederatedRuntime(model_fn, train, val, FLConfig(num_clients=2), executor=name)
    with pytest.raises(TypeError, match=r"FLConfig\(executor=\.\.\.\)"):
        build_fleet_runtime("uniform-edge", model_fn, train, val, executor=name, num_clients=2)


# ----------------------------------------------------------------------
# Scheduler layer
# ----------------------------------------------------------------------
def test_sync_scheduler_matches_seed_reference_loop(data, model_fn):
    """The layered runtime's default round is numerically the seed loop:
    broadcast, sequential local training, uplink, FedAvg, evaluate."""
    from repro.fl import FLClient, FLServer
    from repro.data.partition import partition_dataset
    from repro.utils.seeding import SeedSequenceFactory

    train, val = data
    config = FLConfig(num_clients=2, rounds=1, batch_size=16, seed=5)

    # Hand-rolled seed implementation (one FedAvg round, written out).
    seeds = SeedSequenceFactory(config.seed)
    datasets = partition_dataset(
        train, config.num_clients, strategy=config.partition_strategy,
        alpha=config.dirichlet_alpha, seed=seeds.next_seed(),
    )
    server = FLServer(model_fn, val, eval_batch_size=config.eval_batch_size)
    clients = [
        FLClient(i, model_fn, dataset, config, seed=seeds.next_seed())
        for i, dataset in enumerate(datasets)
    ]
    broadcast = server.global_state()
    states, weights = [], []
    for client in clients:
        update = client.train(dict(broadcast), learning_rate=config.learning_rate)
        states.append(dict(update.state_dict))
        weights.append(float(update.num_samples))
    server.aggregate(states, weights)
    reference = server.evaluate()

    history = FederatedRuntime(model_fn, train, val, config, codec=None).run(1)
    assert history.records[0].global_accuracy == reference.accuracy
    assert history.records[0].global_loss == reference.loss


def test_semi_sync_scheduler_cuts_straggler(data, model_fn, config):
    train, val = data
    specs = edge_fleet_specs(
        4, bandwidths_mbps=(10.0,), straggler_ids=(1,), straggler_factor=1000.0
    )
    simulation = FederatedRuntime(
        model_fn, train, val, config,
        codec=None,
        scheduler=SemiSynchronousScheduler(deadline_seconds=10.0),
        transport=Transport.heterogeneous(specs),
    )
    record = simulation.run_round()
    assert record.straggler_clients == 1
    by_id = {stat.client_id: stat for stat in record.client_stats}
    assert not by_id[1].aggregated
    assert by_id[1].delivered
    assert sum(1 for stat in record.client_stats if stat.aggregated) == 3
    assert record.simulated_round_seconds == pytest.approx(10.0)


def test_semi_sync_without_stragglers_closes_early(data, model_fn, config):
    train, val = data
    simulation = FederatedRuntime(
        model_fn, train, val, config,
        scheduler=SemiSynchronousScheduler(deadline_seconds=1e6),
    )
    record = simulation.run_round()
    assert record.straggler_clients == 0
    assert record.simulated_round_seconds < 1e6
    assert record.simulated_round_seconds == pytest.approx(
        max(stat.turnaround_seconds for stat in record.client_stats)
    )


def test_async_scheduler_staleness_weights(data, model_fn, config):
    train, val = data
    # Distinct latencies make the arrival order deterministic.
    specs = [LinkSpec(bandwidth_mbps=10.0, latency_seconds=10.0 * (i + 1)) for i in range(4)]
    simulation = FederatedRuntime(
        model_fn, train, val, config,
        codec=None,
        scheduler=AsynchronousScheduler(mixing_rate=0.5, staleness_exponent=0.5),
        transport=Transport.heterogeneous(specs),
    )
    record = simulation.run_round()
    by_arrival = sorted(record.client_stats, key=lambda stat: stat.staleness)
    assert [stat.client_id for stat in by_arrival] == [0, 1, 2, 3]
    weights = [stat.weight for stat in by_arrival]
    assert weights[0] == pytest.approx(0.5)
    assert all(a > b for a, b in zip(weights, weights[1:], strict=False))
    assert all(stat.aggregated for stat in record.client_stats)
    assert 0.0 <= record.global_accuracy <= 1.0


def test_async_scheduler_still_learns(data, model_fn):
    train, val = data
    config = FLConfig(num_clients=2, rounds=3, batch_size=16, learning_rate=0.1, seed=5)
    history = FederatedRuntime(
        model_fn, train, val, config,
        scheduler=AsynchronousScheduler(mixing_rate=0.9, staleness_exponent=0.5),
    ).run()
    assert history.final_accuracy >= history.records[0].global_accuracy - 0.1


def test_dropout_excludes_update_from_aggregation(data, model_fn, config):
    train, val = data
    specs = [LinkSpec(dropout_probability=0.95) for _ in range(4)]
    simulation = FederatedRuntime(
        model_fn, train, val, config,
        codec=None,
        transport=Transport.heterogeneous(specs),
    )
    record = simulation.run_round()
    assert record.dropped_clients >= 1
    dropped = [stat for stat in record.client_stats if not stat.delivered]
    assert dropped and all(not stat.aggregated for stat in dropped)


def test_get_scheduler_factory():
    assert isinstance(get_scheduler("sync"), SynchronousScheduler)
    assert isinstance(get_scheduler("semi-sync", deadline_seconds=2.0), SemiSynchronousScheduler)
    assert isinstance(get_scheduler("async"), AsynchronousScheduler)
    with pytest.raises(KeyError):
        get_scheduler("tree-allreduce")


def test_scheduler_parameter_validation():
    with pytest.raises(ValueError):
        SemiSynchronousScheduler(deadline_seconds=0.0)
    with pytest.raises(ValueError):
        AsynchronousScheduler(mixing_rate=0.0)
    with pytest.raises(ValueError):
        AsynchronousScheduler(staleness_exponent=-1.0)


@pytest.mark.parametrize(
    "field, build",
    [
        ("deadline_seconds", lambda: SemiSynchronousScheduler(deadline_seconds=float("nan"))),
        ("deadline_seconds", lambda: SemiSynchronousScheduler(deadline_seconds=float("inf"))),
        ("staleness_exponent", lambda: AsynchronousScheduler(staleness_exponent=float("nan"))),
        ("staleness_exponent", lambda: AsynchronousScheduler(staleness_exponent=float("inf"))),
        ("partition_threshold", lambda: FedSZConfig(partition_threshold=float("nan"))),
        ("partition_threshold", lambda: FedSZConfig(partition_threshold=2.5)),
        ("max_codec_workers", lambda: FedSZConfig(max_codec_workers=2.5)),
        ("max_codec_workers", lambda: FedSZConfig(max_codec_workers=float("nan"))),
        ("max_workers", lambda: ProcessParallelExecutor(max_workers=2.5)),
        ("crash_after_rounds", lambda: ServerCrashSchedule(2.5)),
    ],
    ids=["deadline-nan", "deadline-inf", "exponent-nan", "exponent-inf", "threshold-nan",
         "threshold-fraction", "codec-workers-fraction", "codec-workers-nan",
         "max-workers-fraction", "crash-round-fraction"],
)
def test_nonsense_parameters_are_rejected_at_construction(field, build):
    """A NaN or infinite deadline cuts every update or stalls the round, a
    non-finite exponent turns the global state to NaN, a NaN threshold turns
    the lossy path off, and a fractional count truncates; each is refused
    up front, naming its field."""
    with pytest.raises(ValueError, match=field):
        build()


# ----------------------------------------------------------------------
# Aggregation helper and history plumbing
# ----------------------------------------------------------------------
def test_mix_states_blends_and_preserves_dtypes():
    base = {"w": np.zeros(4, dtype=np.float32), "steps": np.array(10, dtype=np.int64)}
    update = {"w": np.ones(4, dtype=np.float32), "steps": np.array(20, dtype=np.int64)}
    mixed = mix_states(base, update, 0.25)
    np.testing.assert_allclose(mixed["w"], 0.25 * np.ones(4))
    assert mixed["w"].dtype == np.float32
    assert mixed["steps"].dtype == np.int64
    assert int(mixed["steps"]) == 12  # rounded back
    with pytest.raises(ValueError):
        mix_states(base, update, 1.5)


def test_history_client_rows_and_totals(data, model_fn, config):
    train, val = data
    history = FederatedRuntime(
        model_fn, train, val, config, codec=FedSZCompressor(1e-2)
    ).run()
    rows = history.client_rows()
    assert len(rows) == config.rounds * config.num_clients
    assert {"round", "client", "ratio", "turnaround_seconds"} <= set(rows[0])
    assert history.total_dropped_clients == 0
    assert history.total_straggler_clients == 0
    assert history.total_simulated_seconds > 0


def test_runtime_is_usable_directly(data, model_fn, config):
    train, val = data
    runtime = FederatedRuntime(model_fn, train, val, config, codec=IdentityCodec())
    history = runtime.run(1)
    assert len(history) == 1
    assert runtime.channel is not None
    assert history.total_uplink_seconds > 0


@pytest.mark.parametrize(
    "arguments",
    [
        {"rounds": 2.5},
        {"rounds": -3},
        {"keep_checkpoints": 0},
        {"keep_checkpoints": 1.5},
        {"checkpoint_every": float("nan")},
    ],
    ids=["fractional-rounds", "negative-rounds", "keep-none", "keep-fraction", "every-nan"],
)
def test_run_rejects_nonsense_arguments_before_any_round_trains(
    data, model_fn, config, tmp_path, arguments
):
    train, val = data
    runtime = FederatedRuntime(model_fn, train, val, config)
    (name,) = arguments
    with pytest.raises(ValueError, match=name):
        runtime.run(checkpoint_dir=tmp_path, **arguments)
    assert len(runtime.history) == 0
    assert not any(tmp_path.iterdir())
