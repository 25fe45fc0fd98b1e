"""Tests for deterministic seeding helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.seeding import SeedSequenceFactory, default_rng, set_global_seed


def test_set_global_seed_makes_default_rng_deterministic():
    set_global_seed(7)
    first = default_rng().normal(size=5)
    set_global_seed(7)
    second = default_rng().normal(size=5)
    np.testing.assert_array_equal(first, second)


def test_default_rng_with_explicit_seed_ignores_global():
    set_global_seed(1)
    a = default_rng(123).integers(0, 1000, size=10)
    set_global_seed(2)
    b = default_rng(123).integers(0, 1000, size=10)
    np.testing.assert_array_equal(a, b)


def test_seed_factory_is_reproducible():
    factory_a = SeedSequenceFactory(2024)
    factory_b = SeedSequenceFactory(2024)
    assert factory_a.spawn(5) == factory_b.spawn(5)


def test_seed_factory_produces_distinct_seeds():
    factory = SeedSequenceFactory(11)
    seeds = factory.spawn(50)
    assert len(set(seeds)) == 50
    assert factory.spawned == 50


def test_seed_factory_rngs_are_independent():
    factory = SeedSequenceFactory(5)
    rng_a = factory.next_rng()
    rng_b = factory.next_rng()
    assert not np.allclose(rng_a.normal(size=8), rng_b.normal(size=8))


def _eager_stream(root_seed, count):
    """The seeds as they were derived before ``seed_at``: one
    ``SeedSequence.spawn(1)`` per seed, in order."""
    sequence = np.random.SeedSequence(root_seed)
    return [
        int(sequence.spawn(1)[0].generate_state(1, dtype=np.uint32)[0]) for _ in range(count)
    ]


def test_spawn_block_is_lazy_and_equals_the_sequential_stream():
    count = 40
    expected = _eager_stream(77, 2 + count + 2)
    factory = SeedSequenceFactory(77)
    assert [factory.next_seed(), factory.next_seed()] == expected[:2]  # a block mid-stream
    block = factory.spawn(count)
    assert factory.spawned == 2 + count  # claimed at once ...
    assert block.materialized_count == 0  # ... derived on first read
    assert len(block) == count
    for index in (0, 1, count - 1):
        assert block[index] == expected[2 + index]
    assert block[-1] == expected[2 + count - 1]
    assert block.materialized_count == 3
    for index in (count, -count - 1):
        with pytest.raises(IndexError):
            block[index]
    # next_seed() continues the one stream after the block.
    assert [factory.next_seed(), factory.next_seed()] == expected[2 + count :]
    assert factory.spawned == 2 + count + 2
    assert block == expected[2 : 2 + count]
    assert block != expected[1 : 1 + count]
    assert block != expected[2 : 1 + count]


def test_next_seed_matches_seed_sequence_spawning():
    factory = SeedSequenceFactory(5)
    assert [factory.next_seed() for _ in range(8)] == _eager_stream(5, 8)


def test_seed_at_gives_random_access_without_advancing_the_stream():
    factory = SeedSequenceFactory(5)
    assert factory.seed_at(6) == _eager_stream(5, 7)[6]
    assert factory.spawned == 0
    assert factory.next_seed() == factory.seed_at(0)


def test_seed_at_rejects_a_negative_index():
    with pytest.raises(ValueError, match="non-negative"):
        SeedSequenceFactory(5).seed_at(-1)
