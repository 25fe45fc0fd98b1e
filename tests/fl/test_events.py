"""Unit tests for the discrete-event engine building blocks.

The integration-level guarantees (bit-identical histories across schedulers,
executors and kill+resume) live in ``tests/integration/test_event_engine.py``;
this module pins the pieces those guarantees are built from: the tie rules
each scheduler applies when it closes a round, the transitions-vs-mask
contract of participation schedules, the incrementally maintained eligible
set, and the random-access seed derivation lazily built transport links rely
on.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import ORACLES
from repro.fl.events import EligibleSet, FleetEngine
from repro.fl.scenarios import (
    DiurnalSchedule,
    FlashCrowdSchedule,
    FullParticipation,
    ParticipationSchedule,
)
from repro.fl.scheduler import (
    AsynchronousScheduler,
    SemiSynchronousScheduler,
    SynchronousScheduler,
)
from repro.utils.seeding import SeedSequenceFactory


# ----------------------------------------------------------------------
# Schedule transitions == mask diffs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "schedule",
    [
        FullParticipation(),
        DiurnalSchedule(period_rounds=4, min_availability=0.2, max_availability=0.9, seed=3),
        FlashCrowdSchedule(join_round=2, leave_round=5, crowd_fraction=0.5),
    ],
    ids=["full", "diurnal", "flash-crowd"],
)
def test_transitions_match_mask_diffs(schedule):
    """Every schedule's arrival/departure stream must reproduce the diff of
    consecutive availability masks (round 0 diffs against an empty fleet)."""
    num_clients = 64
    previous = np.zeros(num_clients, dtype=bool)
    for round_index in range(10):
        current = np.asarray(schedule.mask(round_index, num_clients), dtype=bool)
        arrivals, departures = schedule.transitions(round_index, num_clients)
        np.testing.assert_array_equal(arrivals, np.nonzero(current & ~previous)[0])
        np.testing.assert_array_equal(departures, np.nonzero(previous & ~current)[0])
        previous = current


@pytest.mark.parametrize(
    "schedule",
    [
        FullParticipation(),
        DiurnalSchedule(period_rounds=4, min_availability=0.2, max_availability=0.9, seed=3),
        FlashCrowdSchedule(join_round=2, leave_round=5, crowd_fraction=0.5),
    ],
    ids=["full", "diurnal", "flash-crowd"],
)
def test_eligible_set_tracks_masks_incrementally(schedule):
    """Folding the transition stream into an EligibleSet reproduces
    ``np.nonzero(mask)[0]`` bit for bit at every round."""
    num_clients = 64
    eligible = EligibleSet()
    for round_index in range(10):
        eligible.apply(*schedule.transitions(round_index, num_clients))
        mask = np.asarray(schedule.mask(round_index, num_clients), dtype=bool)
        expected = np.nonzero(mask)[0]
        np.testing.assert_array_equal(eligible.ids(), expected)
        assert eligible.ids().dtype == np.int64
        assert len(eligible) == int(expected.size)


def test_eligible_set_counts_touches():
    eligible = EligibleSet()
    eligible.apply(np.array([1, 3, 5]), np.array([], dtype=np.int64))
    eligible.apply(np.array([2]), np.array([3]))
    assert sorted(eligible.ids().tolist()) == [1, 2, 5]
    assert eligible.touched == 5
    eligible.reset_from_mask(np.array([True, False, True, False]))
    assert eligible.ids().tolist() == [0, 2]
    assert eligible.touched == 9  # the rebuild is a full-fleet touch


_id_batches = st.lists(st.integers(min_value=0, max_value=40), max_size=30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rounds=st.lists(st.tuples(_id_batches, _id_batches), max_size=6))
def test_eligible_set_apply_equals_a_python_set_model(rounds):
    """The sorted merge against ``(set | arrivals) - departures``: batches
    arrive unsorted, duplicated and overlapping; departures may be absent,
    arrivals already present, an id may sit in both (it ends up absent), and
    either batch — or the set — may be empty."""
    eligible = EligibleSet()
    model: set = set()
    touched = 0
    for arrivals, departures in rounds:
        eligible.apply(np.array(arrivals, dtype=np.int32), np.array(departures, dtype=np.int64))
        model = (model | set(arrivals)) - set(departures)
        touched += len(arrivals) + len(departures)
        ids = eligible.ids()
        assert ids.dtype == np.int64
        assert ids.tolist() == sorted(model)  # strictly increasing: sorted and unique
        assert len(eligible) == len(model)
        assert eligible.touched == touched


@pytest.mark.parametrize(
    "schedule",
    [
        DiurnalSchedule(period_rounds=4, min_availability=0.2, max_availability=0.9, seed=5),
        FlashCrowdSchedule(join_round=2, leave_round=5, crowd_fraction=0.4),
    ],
    ids=["diurnal", "flash-crowd"],
)
def test_eligible_set_equals_mask_nonzero_at_5000_ids(schedule):
    num_clients = 5_000
    eligible = EligibleSet()
    for round_index in range(8):
        eligible.apply(*schedule.transitions(round_index, num_clients), num_clients)
        expected = np.nonzero(schedule.mask(round_index, num_clients))[0]
        assert eligible.ids().dtype == np.int64
        np.testing.assert_array_equal(eligible.ids(), expected)
        assert np.all(np.diff(eligible.ids()) > 0)


@pytest.mark.parametrize(
    "batch",
    [
        np.array([-1]),  # ClientRegistry.__getitem__(-1) would wrap to the last client
        np.array([2.7]),  # would truncate to id 2
        np.array([], dtype=np.float64),
        np.array([True, False]),
        np.array([[0, 1], [2, 3]]),
        np.array([3, 10]),  # == num_clients
    ],
    ids=["negative", "float", "empty-float", "bool", "2-D", "past-the-fleet"],
)
def test_eligible_set_rejects_ids_no_mask_could_mean(batch):
    empty = np.empty(0, dtype=np.int64)
    for arrivals, departures in ((batch, empty), (empty, batch)):
        eligible = EligibleSet()
        eligible.apply(np.array([1, 2, 3]), empty, 10)
        with pytest.raises(ValueError):
            eligible.apply(arrivals, departures, 10)
        assert eligible.ids().tolist() == [1, 2, 3]  # a rejected batch changes nothing
        assert eligible.touched == 3
    EligibleSet().apply(np.array([3, 10]), empty)  # no fleet size given: only the sign is checked


def test_reset_from_mask_rejects_a_mask_that_is_not_one_flag_per_client():
    eligible = EligibleSet()
    with pytest.raises(ValueError):
        eligible.reset_from_mask(np.ones((2, 3), dtype=bool))  # nonzero()[0] = [0 0 0 1 1 1]
    with pytest.raises(ValueError):
        eligible.reset_from_mask(np.ones(5, dtype=bool), 6)
    assert len(eligible) == 0 and eligible.touched == 0
    eligible.reset_from_mask(np.ones(5, dtype=bool), 5)
    assert eligible.ids().tolist() == [0, 1, 2, 3, 4]


def test_an_event_free_round_returns_the_cached_ids_without_a_fleet_pass(monkeypatch):
    eligible = EligibleSet()
    eligible.apply(np.array([4, 1, 7]), np.empty(0, dtype=np.int64), 100_000)
    ids = eligible.ids()
    assert ids.tolist() == [1, 4, 7]

    calls = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(a.size) or flatnonzero(a))
    empty = np.empty(0, dtype=np.int64)
    for _ in range(3):
        eligible.apply(empty, empty, 100_000)
        assert eligible.ids() is ids and len(eligible) == 3
    assert calls == []  # no pass over the 100k-flag bitmap
    eligible.apply(np.array([2]), empty, 100_000)
    assert eligible.ids().tolist() == [1, 2, 4, 7] and calls == [100_000]


def test_the_bitmap_grows_to_the_largest_id_without_a_fleet_size():
    eligible = EligibleSet()
    eligible.apply([3, 10], [])
    assert eligible.ids().tolist() == [3, 10] and eligible.ids().dtype == np.int64
    eligible.apply(np.array([1_000_000]), np.array([10, 5_000_000]))  # an absent departure
    assert eligible.ids().tolist() == [3, 1_000_000]
    assert eligible.touched == 5


def _two_mask_diff(schedule, round_index, num_clients):
    current = schedule.mask(round_index, num_clients)
    previous = (
        schedule.mask(round_index - 1, num_clients)
        if round_index > 0
        else np.zeros(num_clients, dtype=bool)
    )
    return np.nonzero(current & ~previous)[0], np.nonzero(previous & ~current)[0]


@pytest.mark.parametrize(
    "calls, draws",
    [
        # In order: each round draws its own mask once and diffs against the kept one.
        ([(r, 300) for r in range(6)], [0, 1, 2, 3, 4, 5]),
        # Any other order draws both masks, except where the kept mask is the previous round's.
        (
            [(3, 300), (1, 300), (2, 300), (2, 300), (0, 300), (1, 300)],
            [3, 2, 1, 0, 2, 2, 1, 0, 1],
        ),
        # A new fleet size is a new mask: draw both.
        ([(0, 300), (1, 300), (2, 301), (3, 301), (4, 300)], [0, 1, 2, 1, 3, 4, 3]),
    ],
    ids=["in-order", "out-of-order", "fleet-resize"],
)
def test_transitions_equal_the_two_mask_diff_in_any_call_order(calls, draws):
    schedule = DiurnalSchedule(period_rounds=4, min_availability=0.2, max_availability=0.9, seed=7)
    reference = DiurnalSchedule(period_rounds=4, min_availability=0.2, max_availability=0.9, seed=7)
    drawn = []
    mask = schedule.mask
    schedule.mask = lambda round_index, n: drawn.append(round_index) or mask(round_index, n)
    for round_index, num_clients in calls:
        arrivals, departures = schedule.transitions(round_index, num_clients)
        expected_arrivals, expected_departures = _two_mask_diff(reference, round_index, num_clients)
        np.testing.assert_array_equal(arrivals, expected_arrivals)
        np.testing.assert_array_equal(departures, expected_departures)
    assert drawn == draws


class _ScriptedSchedule(ParticipationSchedule):
    """Everyone reachable in round 0; ``batch`` arrives in round 1."""

    def __init__(self, batch):
        self.batch = batch

    def mask(self, round_index, num_clients):
        return np.ones(num_clients, dtype=bool)

    def transitions(self, round_index, num_clients):
        empty = np.empty(0, dtype=np.int64)
        if round_index == 0:
            return np.arange(num_clients), empty
        return self.batch, empty


@pytest.mark.parametrize(
    "batch", [np.array([-1]), np.array([2.7]), np.array([4])], ids=["negative", "float", "past"]
)
def test_a_schedule_returning_bad_ids_fails_the_round(batch):
    """The incremental path validates what the mask path does: the round
    fails instead of training client ``-1 % n`` or ``int(2.7)``."""
    from repro.data import load_dataset
    from repro.fl import FederatedRuntime, FLConfig
    from repro.nn.models import create_model

    train, validation = load_dataset("cifar10", num_samples=48, image_size=8, seed=0).split(0.75)
    runtime = FederatedRuntime(
        lambda: create_model("alexnet", "tiny", num_classes=10, seed=0),
        train,
        validation,
        FLConfig(num_clients=4, rounds=2, batch_size=8, seed=3),
        schedule=_ScriptedSchedule(batch),
    )
    runtime.run_round()
    with pytest.raises(ValueError, match="client ids"):
        runtime.run_round()
    assert len(runtime.history) == 1
    assert runtime.clients.materialized_count == 4  # nobody new was built


# ----------------------------------------------------------------------
# Tie rules at the close of a round
# ----------------------------------------------------------------------
class _ScriptedRuntime:
    """Just enough runtime for ``FleetEngine.run_round``: the clients' results
    are scripted, and ``finish_round`` hands back what the scheduler decided."""

    schedule = None

    def __init__(self, scheduler, arrivals):
        self.scheduler = scheduler
        self.history = []
        self.global_state = {"w": np.zeros(1)}
        self.server = SimpleNamespace(
            aggregate=lambda states, weights: None,
            global_state=lambda: self.global_state,
            set_global_state=lambda state: None,
        )
        # Task order is ascending client id, as the sampler produces it.
        self.results = [
            SimpleNamespace(
                client_id=client_id,
                turnaround_seconds=turnaround,
                delivered=delivered,
                state={"w": np.ones(1)},
                update=SimpleNamespace(num_samples=1),
            )
            for client_id, turnaround, delivered in sorted(arrivals)
        ]

    def start_round(self, eligible=None):
        return None

    def execute_clients(self, context):
        return self.results

    def finish_round(self, context, results, aggregated_ids, round_seconds,
                     client_weights=None, client_staleness=None):
        return SimpleNamespace(
            aggregated=set(aggregated_ids),
            seconds=round_seconds,
            weights=client_weights,
            staleness=client_staleness,
        )


def _close_round(scheduler, arrivals):
    """One engine round over ``(client_id, turnaround, delivered)`` triples."""
    runtime = _ScriptedRuntime(scheduler, arrivals)  # the engine holds it weakly
    return FleetEngine(runtime).run_round()


def test_sync_round_waits_for_an_undelivered_straggler():
    closed = _close_round(SynchronousScheduler(), [(0, 1.0, True), (1, 9.0, False)])
    assert closed.aggregated == {0}
    assert closed.seconds == 9.0


def test_semi_sync_delivery_at_exactly_the_deadline_is_on_time():
    scheduler = SemiSynchronousScheduler(deadline_seconds=5.0)
    closed = _close_round(scheduler, [(0, 2.0, True), (1, 5.0, True)])
    assert closed.aggregated == {0, 1}
    assert closed.seconds == 5.0  # nobody missing: closes at the last delivery

    late = float(np.nextafter(5.0, 6.0))
    closed = _close_round(scheduler, [(0, 2.0, True), (1, 5.0, True), (2, late, True)])
    assert closed.aggregated == {0, 1}
    assert closed.seconds == 5.0  # someone missing: runs to the deadline


def test_async_simultaneous_deliveries_mix_lower_client_id_first():
    scheduler = AsynchronousScheduler(mixing_rate=0.5, staleness_exponent=1.0)
    closed = _close_round(
        scheduler, [(2, 1.0, True), (5, 1.0, True), (9, 0.5, True), (7, 0.1, False)]
    )
    assert closed.staleness == {9: 0, 2: 1, 5: 2}  # turnaround first, then id
    assert closed.weights == {9: 0.5, 2: 0.25, 5: 0.5 / 3.0}
    assert closed.aggregated == {2, 5, 9}
    assert closed.seconds == 1.0


_DEADLINE = 5.0
_SCHEDULERS = [
    SynchronousScheduler(),
    SemiSynchronousScheduler(deadline_seconds=_DEADLINE),
    AsynchronousScheduler(mixing_rate=0.5, staleness_exponent=1.0),
]
# Few distinct turnarounds, so ties are common; the deadline and the next float
# past it straddle the semi-sync cut.
_TURNAROUNDS = [0.0, 1.0, _DEADLINE, float(np.nextafter(_DEADLINE, np.inf)), 9.0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    arrivals=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.sampled_from(_TURNAROUNDS),
            st.booleans(),
        ),
        max_size=10,
        unique_by=lambda arrival: arrival[0],
    )
)
def test_every_scheduler_closes_a_tie_heavy_round_as_its_oracle_does(arrivals):
    stats = [
        SimpleNamespace(client_id=c, turnaround_seconds=t, delivered=d) for c, t, d in arrivals
    ]
    for scheduler in _SCHEDULERS:
        closed = _close_round(scheduler, arrivals)
        aggregated, seconds = ORACLES[scheduler.name](stats, scheduler)
        weights, staleness = closed.weights or {}, closed.staleness or {}
        assert {
            client_id: (staleness.get(client_id, 0), weights.get(client_id, 0.0))
            for client_id in closed.aggregated
        } == aggregated, scheduler.name
        assert closed.seconds == seconds, scheduler.name


# ----------------------------------------------------------------------
# Seed plumbing the engine depends on
# ----------------------------------------------------------------------
def test_seed_at_matches_sequential_derivation():
    """Random access into the spawn sequence equals sequential spawning — the
    property lazily materialised transport links rely on to match an eagerly
    seeded population."""
    sequential = SeedSequenceFactory(42)
    expected = [sequential.next_seed() for _ in range(16)]
    random_access = SeedSequenceFactory(42)
    assert [random_access.seed_at(i) for i in range(16)] == expected
    assert random_access.seed_at(3) == expected[3]  # revisiting is stable
    with pytest.raises(ValueError):
        random_access.seed_at(-1)
