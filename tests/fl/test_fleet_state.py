"""Tests for the lazy client layer: model pool, registry, schedules, scenarios."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.data import load_dataset
from repro.fl import (
    ClientRegistry,
    DiurnalSchedule,
    FederatedRuntime,
    FLClient,
    FLConfig,
    FlashCrowdSchedule,
    FullParticipation,
    ModelPool,
    ParticipationSchedule,
    available_scenarios,
    build_fleet_runtime,
    build_schedule,
    get_scenario,
)
from repro.fl.config import participant_count
from repro.fl.state import capture_stochastic_state, restore_stochastic_state
from repro.nn.models import create_model


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=240, image_size=8, seed=0)
    return full.split(0.75, seed=1)


@pytest.fixture
def model_fn():
    return lambda: create_model("mobilenetv2", "tiny", num_classes=10, seed=9)


# ----------------------------------------------------------------------
# ModelPool
# ----------------------------------------------------------------------
def test_model_pool_reuses_instances(model_fn):
    pool = ModelPool(model_fn)
    first = pool.acquire()
    pool.release(first)
    second = pool.acquire()
    pool.release(second)
    assert second is first
    assert pool.created == 1
    assert pool.peak_in_use == 1


def test_model_pool_counts_overlapping_borrows(model_fn):
    pool = ModelPool(model_fn)
    a = pool.acquire()
    b = pool.acquire()
    assert pool.created == 2
    assert pool.in_use == 2
    pool.release(a)
    pool.release(b)
    # A third borrower reuses a freed model instead of building a third.
    with pool.borrow():
        assert pool.created == 2
    assert (pool.in_use, pool.peak_in_use) == (0, 2)


def test_model_pool_takes_no_bound(model_fn):
    """One trainer thread borrows one model at a time, so the pool needs no
    bound: ``max_models`` is refused, and sequential borrowers share one model."""
    with pytest.raises(TypeError, match="max_models"):
        ModelPool(model_fn, max_models=2)
    pool = ModelPool(model_fn)
    for _ in range(5):
        with pool.borrow():
            assert pool.in_use == 1
    assert (pool.created, pool.in_use, pool.peak_in_use) == (1, 0, 1)


def test_pool_pristine_states_match_fresh_model(model_fn):
    pool = ModelPool(model_fn)
    pristine = pool.pristine_states
    fresh = capture_stochastic_state(model_fn())
    assert pristine == fresh
    assert len(pristine) > 0  # mobilenetv2 carries Dropout


def test_stochastic_state_roundtrip(model_fn):
    model = model_fn()
    states = capture_stochastic_state(model)
    # Advance every stream, then restore: draws must replay.
    from repro.fl.state import stochastic_modules

    drawn = [module._rng.random(4).tolist() for module in stochastic_modules(model)]
    restore_stochastic_state(model, states)
    replayed = [module._rng.random(4).tolist() for module in stochastic_modules(model)]
    assert drawn == replayed
    with pytest.raises(ValueError):
        restore_stochastic_state(model, states + states)


def test_stochastic_streams_follow_a_module_added_after_a_capture(model_fn):
    from repro.nn import Dropout

    model = model_fn()
    states = capture_stochastic_state(model)
    restore_stochastic_state(model, states)
    added = Dropout(0.5, rng=np.random.default_rng(77))
    model.add_module("extra_dropout", added)
    grown = capture_stochastic_state(model)
    assert len(grown) == len(states) + 1
    assert grown[-1] == added._rng.bit_generator.state
    with pytest.raises(ValueError):
        restore_stochastic_state(model, states)
    drawn = added._rng.random(3).tolist()
    restore_stochastic_state(model, grown)
    assert added._rng.random(3).tolist() == drawn


# ----------------------------------------------------------------------
# ClientRegistry + lazy FLClient
# ----------------------------------------------------------------------
def test_registry_materialises_lazily(data, model_fn):
    train, _ = data
    from repro.data.partition import partition_dataset

    datasets = partition_dataset(train, 8, seed=0)
    pool = ModelPool(model_fn)
    registry = ClientRegistry(model_fn, datasets, FLConfig(num_clients=8), list(range(8)), pool)
    assert len(registry) == 8
    assert registry.materialized_count == 0
    client = registry[3]
    assert isinstance(client, FLClient)
    assert registry.materialized_count == 1
    assert registry[3] is client  # cached
    assert registry[-1].client_id == 7
    assert [c.client_id for c in registry[2:4]] == [2, 3]
    assert len(list(registry)) == 8
    assert pool.created == 0  # materialising clients builds no models
    with pytest.raises(IndexError):
        registry[8]


def test_registry_rejects_empty_datasets(data, model_fn):
    train, _ = data
    empty = train.subset(np.array([], dtype=np.int64))
    pool = ModelPool(model_fn)
    with pytest.raises(ValueError):
        ClientRegistry(model_fn, [train, empty], FLConfig(num_clients=2), [0, 1], pool)
    with pytest.raises(ValueError):
        ClientRegistry(model_fn, [train], FLConfig(), [0, 1], pool)


def test_pooled_client_has_no_resident_model(data, model_fn):
    train, _ = data
    pool = ModelPool(model_fn)
    client = FLClient(0, model_fn, train, FLConfig(batch_size=16), seed=1, model_pool=pool)
    with pytest.raises(AttributeError):
        _ = client.model
    update = client.train(model_fn().state_dict(), learning_rate=0.05)
    assert update.num_samples == len(train)
    assert pool.created == 1
    assert pool.in_use == 0  # returned after training


def test_pooled_client_matches_private_model_bitwise(data, model_fn):
    """Dropout streams live in the client, so a shared pooled model reproduces
    a private-model client exactly — across multiple rounds."""
    train, _ = data
    config = FLConfig(batch_size=16)
    broadcast = model_fn().state_dict()

    private = FLClient(0, model_fn, train, config, seed=5)
    pool = ModelPool(model_fn)
    pooled = FLClient(0, model_fn, train, config, seed=5, model_pool=pool)

    for _ in range(2):
        expected = private.train(broadcast, learning_rate=0.05)
        actual = pooled.train(broadcast, learning_rate=0.05)
        assert expected.train_loss == actual.train_loss
        for name in expected.state_dict:
            np.testing.assert_array_equal(expected.state_dict[name], actual.state_dict[name])


def test_pool_interleaving_does_not_leak_streams(data, model_fn):
    """Client B training in between must not perturb client A's streams."""
    train, _ = data
    config = FLConfig(batch_size=16)
    broadcast = model_fn().state_dict()

    reference_a = FLClient(0, model_fn, train, config, seed=5)
    first = reference_a.train(broadcast, learning_rate=0.05)
    second_expected = reference_a.train(broadcast, learning_rate=0.05)

    pool = ModelPool(model_fn)
    client_a = FLClient(0, model_fn, train, config, seed=5, model_pool=pool)
    client_b = FLClient(1, model_fn, train, config, seed=6, model_pool=pool)
    assert client_a.train(broadcast, learning_rate=0.05).train_loss == first.train_loss
    client_b.train(broadcast, learning_rate=0.05)  # advances the shared model's rngs
    second_actual = client_a.train(broadcast, learning_rate=0.05)
    assert second_actual.train_loss == second_expected.train_loss


# ----------------------------------------------------------------------
# Sampling convention
# ----------------------------------------------------------------------
def test_participant_count_is_explicit_ceiling():
    assert participant_count(0.5, 5) == 3  # banker's rounding gave 2
    assert participant_count(0.05, 256) == 13
    assert participant_count(0.5, 4) == 2
    assert participant_count(0.2, 10) == 2  # 0.2 * 10 == 2.0000000000000004
    assert participant_count(0.1, 30) == 3  # 0.1 * 30 == 2.9999999999999996
    assert participant_count(0.001, 4) == 1  # never below one client
    assert participant_count(1.0, 7) == 7
    with pytest.raises(ValueError):
        participant_count(0.5, 0)


def test_runtime_sampling_uses_ceiling(data, model_fn):
    train, val = data
    config = FLConfig(num_clients=5, rounds=1, batch_size=16, client_fraction=0.5, seed=2)
    runtime = FederatedRuntime(model_fn, train, val, config)
    record = runtime.run_round()
    assert record.participating_clients == 3


# ----------------------------------------------------------------------
# Participation schedules
# ----------------------------------------------------------------------
def test_full_participation_mask():
    assert FullParticipation().mask(0, 5).all()


def test_diurnal_schedule_availability_and_mask():
    schedule = DiurnalSchedule(
        period_rounds=8, min_availability=0.2, max_availability=0.9, seed=3
    )
    assert schedule.availability(0) == pytest.approx(0.9)
    assert schedule.availability(4) == pytest.approx(0.2)
    # Masks are a pure function of the round index.
    np.testing.assert_array_equal(schedule.mask(2, 64), schedule.mask(2, 64))
    # The fleet thins out towards "night".
    assert schedule.mask(0, 512).sum() > schedule.mask(4, 512).sum()
    with pytest.raises(ValueError):
        DiurnalSchedule(period_rounds=0)
    with pytest.raises(ValueError):
        DiurnalSchedule(min_availability=0.8, max_availability=0.2)


def test_flash_crowd_schedule_mask():
    schedule = FlashCrowdSchedule(join_round=2, leave_round=4, crowd_fraction=0.5)
    before = schedule.mask(0, 8)
    during = schedule.mask(2, 8)
    after = schedule.mask(4, 8)
    np.testing.assert_array_equal(before, [1, 1, 1, 1, 0, 0, 0, 0])
    assert during.all()
    np.testing.assert_array_equal(after, before)
    with pytest.raises(ValueError):
        FlashCrowdSchedule(join_round=3, leave_round=3)
    with pytest.raises(ValueError):
        FlashCrowdSchedule(crowd_fraction=1.0)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: DiurnalSchedule(period_rounds=2.5), "period_rounds"),
        (lambda: DiurnalSchedule(period_rounds=True), "period_rounds"),
        (lambda: DiurnalSchedule(period_rounds=float("nan")), "period_rounds"),
        (lambda: DiurnalSchedule(phase=float("nan")), "phase"),
        (lambda: DiurnalSchedule(phase=float("inf")), "phase"),
        (lambda: DiurnalSchedule(phase=-float("inf")), "phase"),
        (lambda: FlashCrowdSchedule(join_round=1.5), "join_round"),
        (lambda: FlashCrowdSchedule(leave_round=4.7), "leave_round"),
        (lambda: FlashCrowdSchedule(join_round=False, leave_round=3), "join_round"),
    ],
    ids=[
        "period-fraction", "period-bool", "period-nan", "phase-nan", "phase-inf",
        "phase-minus-inf", "join-fraction", "leave-fraction", "join-bool",
    ],
)
def test_schedules_reject_round_counts_they_would_truncate(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_schedules_keep_integral_round_counts():
    diurnal = DiurnalSchedule(period_rounds=np.int64(4), phase=1)
    assert (diurnal.period_rounds, diurnal.phase) == (4, 1.0)
    assert type(diurnal.period_rounds) is int
    assert DiurnalSchedule(period_rounds=8.0).period_rounds == 8
    crowd = FlashCrowdSchedule(join_round=np.int32(1), leave_round=3.0)
    assert (crowd.join_round, crowd.leave_round) == (1, 3)
    assert type(crowd.join_round) is int and type(crowd.leave_round) is int


def test_build_schedule_factory():
    assert isinstance(build_schedule("full"), FullParticipation)
    assert isinstance(build_schedule("diurnal", period_rounds=4), DiurnalSchedule)
    assert isinstance(build_schedule("flash_crowd", join_round=1, leave_round=2), FlashCrowdSchedule)
    with pytest.raises(KeyError):
        build_schedule("lunar")


# ----------------------------------------------------------------------
# Availability-driven sampling in the runtime
# ----------------------------------------------------------------------
class _OnlyClients(ParticipationSchedule):
    """Test schedule: a fixed eligible set every round."""

    def __init__(self, ids):
        self.ids = set(ids)

    def mask(self, round_index, num_clients):
        mask = np.zeros(num_clients, dtype=bool)
        for client_id in self.ids:
            mask[client_id] = True
        return mask


def test_availability_mask_restricts_participants(data, model_fn):
    train, val = data
    config = FLConfig(num_clients=4, rounds=1, batch_size=16, seed=3)
    runtime = FederatedRuntime(
        model_fn, train, val, config, schedule=_OnlyClients({0, 2})
    )
    record = runtime.run_round()
    assert [stat.client_id for stat in record.client_stats] == [0, 2]


def test_availability_mask_scales_sample_size(data, model_fn):
    train, val = data
    config = FLConfig(num_clients=4, rounds=1, batch_size=16, client_fraction=0.5, seed=3)
    runtime = FederatedRuntime(
        model_fn, train, val, config, schedule=_OnlyClients({1, 3})
    )
    record = runtime.run_round()
    # ceil(0.5 x 2 eligible) = 1 participant, drawn from the eligible set.
    assert record.participating_clients == 1
    assert record.client_stats[0].client_id in {1, 3}


def test_empty_availability_round_is_recorded_gracefully(data, model_fn):
    train, val = data
    config = FLConfig(num_clients=4, rounds=1, batch_size=16, seed=3)
    runtime = FederatedRuntime(
        model_fn, train, val, config, schedule=_OnlyClients(set())
    )
    record = runtime.run_round()
    assert record.participating_clients == 0
    assert record.client_stats == []
    assert record.mean_client_loss == 0.0
    assert record.simulated_round_seconds == 0.0
    assert np.isfinite(record.global_accuracy)


def test_bad_mask_shape_raises(data, model_fn):
    train, val = data

    class _Wrong(ParticipationSchedule):
        def mask(self, round_index, num_clients):
            return np.ones(num_clients + 1, dtype=bool)

    runtime = FederatedRuntime(
        model_fn, train, val, FLConfig(num_clients=4, batch_size=16), schedule=_Wrong()
    )
    with pytest.raises(ValueError):
        runtime.run_round()


def test_dropped_runtime_is_freed_without_the_cycle_collector(data, model_fn):
    """The engine refers back to its runtime weakly: a strong cycle would keep
    every dropped runtime (models, datasets) resident until a gc pass, which
    is what a sweep building one runtime per configuration pays in peak RSS."""
    train, val = data
    runtime = FederatedRuntime(model_fn, train, val, FLConfig(num_clients=4, batch_size=16))
    runtime.run_round()
    alive = weakref.ref(runtime)
    gc.disable()
    try:
        del runtime
        assert alive() is None
    finally:
        gc.enable()


def test_fleet_construction_cuts_no_shard_and_derives_no_seed(model_fn):
    """Laziness on counters, not wall-clock: a 20 000-client ``mega-fleet``
    runtime is built without touching one client's data or seed, and after
    three rounds exactly the materialised clients have been paid for."""
    clients = 20_000
    full = load_dataset("cifar10", num_samples=clients + 64, image_size=8, seed=0)
    train, val = full.split(clients / (clients + 64), seed=1)
    runtime = build_fleet_runtime(
        get_scenario("mega-fleet", num_clients=clients), model_fn, train, val,
        codec=None, seed=4, batch_size=16,
    )
    registry = runtime.clients
    assert len(registry) == len(registry.datasets) == len(registry.seeds) == clients
    assert registry.datasets.sizes.sum() == len(train)
    assert registry.datasets.materialized_count == 0  # shards cut
    assert registry.seeds.materialized_count == 0  # client seeds derived
    assert registry.materialized_count == 0
    for _ in range(3):
        runtime.run_round()
    assert 0 < registry.materialized_count <= 3 * participant_count(
        runtime.config.client_fraction, clients
    )
    assert registry.datasets.materialized_count == registry.materialized_count
    assert registry.seeds.materialized_count == registry.materialized_count
    for client_id, client in registry.materialized_items():
        assert client.dataset is registry.datasets[client_id]

    # Nothing in the lazy layer may keep a dropped fleet's data resident.
    alive = weakref.ref(registry.datasets)
    gc.disable()
    try:
        del runtime, registry, client
        assert alive() is None
    finally:
        gc.enable()


def test_lazily_built_clients_equal_eagerly_built_ones(data, model_fn):
    """The registry's client ``i`` is the client the eager loop built: same
    shard, same shuffle seed, whatever the order of first touch."""
    from repro.data.partition import iid_partition
    from repro.utils.seeding import SeedSequenceFactory

    train, val = data
    config = FLConfig(num_clients=6, batch_size=16, seed=21)
    seeds = SeedSequenceFactory(config.seed)
    index_sets = iid_partition(train, 6, seed=seeds.next_seed())
    client_seeds = [seeds.next_seed() for _ in range(6)]
    runtime = FederatedRuntime(model_fn, train, val, config)
    for client_id in (4, 0, 5):  # not in id order
        client = runtime.clients[client_id]
        np.testing.assert_array_equal(client.dataset.images, train.images[index_sets[client_id]])
        np.testing.assert_array_equal(client.dataset.labels, train.labels[index_sets[client_id]])
        reference = np.random.default_rng(client_seeds[client_id]).bit_generator.state
        assert client.loader.get_rng_state() == reference
    assert runtime.clients.datasets.materialized_count == 3


# ----------------------------------------------------------------------
# Scenario presets
# ----------------------------------------------------------------------
def test_available_scenarios_names():
    names = [scenario.name for scenario in available_scenarios()]
    assert names == [
        "diurnal",
        "flash-crowd",
        "mega-fleet",
        "uniform-edge",
        "unreliable-server",
    ]


def test_get_scenario_overrides():
    scenario = get_scenario("uniform-edge", num_clients=32, client_fraction=0.25)
    assert scenario.num_clients == 32
    assert scenario.client_fraction == 0.25
    with pytest.raises(KeyError):
        get_scenario("datacenter")


def test_scenario_build_components():
    config, transport, scheduler, schedule = get_scenario(
        "diurnal", num_clients=16, rounds=3
    ).build(seed=4)
    assert config.num_clients == 16
    assert config.rounds == 3
    assert not transport.is_homogeneous
    assert scheduler.name == "semi-sync"
    assert isinstance(schedule, DiurnalSchedule)


def test_build_fleet_runtime_refuses_the_removed_engine_option(data, model_fn):
    """The frozen benchmark still passes ``engine="events"``; that one value
    is discarded, anything else says the option is gone — and neither puts
    the key back on ``FLConfig``."""
    train, val = data
    kwargs = dict(seed=2, num_clients=8, rounds=1, batch_size=16)
    runtime = build_fleet_runtime(
        "uniform-edge", model_fn, train, val, engine="events", **kwargs
    )
    assert not hasattr(runtime.config, "engine")
    with pytest.raises(ValueError, match="removed"):
        build_fleet_runtime(
            "uniform-edge", model_fn, train, val, engine="rounds", **kwargs
        )


def test_build_fleet_runtime_smoke(data, model_fn):
    train, val = data
    runtime = build_fleet_runtime(
        "flash-crowd",
        model_fn,
        train,
        val,
        seed=2,
        num_clients=8,
        rounds=1,
        client_fraction=0.5,
        batch_size=16,
    )
    record = runtime.run_round()
    # Before the crowd joins, only the 4-client core is eligible.
    assert record.participating_clients == 2
    assert all(stat.client_id < 4 for stat in record.client_stats)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def test_server_crash_schedule_fires_on_listed_rounds():
    from repro.fl import ServerCrashSchedule, SimulatedCrash

    schedule = ServerCrashSchedule(1, 3)
    schedule.after_round(0)  # silent
    with pytest.raises(SimulatedCrash) as crash:
        schedule.after_round(1)
    assert crash.value.round_index == 1
    schedule.after_round(2)
    with pytest.raises(SimulatedCrash):
        schedule.after_round(3)
    with pytest.raises(ValueError):
        ServerCrashSchedule()
    with pytest.raises(ValueError):
        ServerCrashSchedule(-1)


def test_unreliable_server_scenario_crashes_and_builds_injector(data, model_fn):
    from repro.fl import ServerCrashSchedule, SimulatedCrash, get_scenario

    scenario = get_scenario("unreliable-server", num_clients=4, rounds=3)
    injector = scenario.build_fault_injector()
    assert isinstance(injector, ServerCrashSchedule)
    assert injector.crash_after_rounds == (2,)
    assert get_scenario("uniform-edge").build_fault_injector() is None

    train, val = data
    runtime = build_fleet_runtime(
        scenario.with_overrides(crash_after_rounds=(0,)),
        model_fn, train, val, seed=2, batch_size=16,
    )
    with pytest.raises(SimulatedCrash):
        runtime.run()
    assert len(runtime.history) == 1  # round 0 completed before the crash
