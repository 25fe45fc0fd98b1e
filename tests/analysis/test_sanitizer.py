"""Runtime RNG/clock sanitizer behaviour.

The sanitizer must (a) blow up when *repo runtime code* touches global RNG or
wall-clock, (b) pass calls from anywhere else through untouched, and (c)
restore every patched function on exit, including under nesting.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.analysis import rule_rng
from repro.analysis.sanitizer import (
    DeterminismViolation,
    is_active,
    sanitized,
    violation_snapshot,
)
from repro.obs import RunMonitor
from repro.utils.seeding import set_global_seed


class TestRaisesFromRepoCode:
    def test_global_seed_entry_point_raises(self):
        # utils.seeding.set_global_seed carries lint suppressions (it is the
        # sanctioned *static* escape hatch), but the determinism suites must
        # still never reach it dynamically — the sanitizer enforces that.
        with sanitized():
            with pytest.raises(DeterminismViolation, match="random.seed"):
                set_global_seed(0)

    def test_monitor_default_wall_clock_raises(self):
        # RunMonitor's default clock is time.time, called from obs/monitor.py
        # (repo runtime code) — under the sanitizer that must fail loudly.
        with sanitized():
            monitor = RunMonitor()
            with pytest.raises(DeterminismViolation, match="time.time"):
                monitor.emit("probe")

    def test_injected_clock_keeps_monitor_usable(self):
        with sanitized():
            monitor = RunMonitor(clock=lambda: 0.0)
            event = monitor.emit("probe")
            assert event.wall_time == 0.0


    def test_numpy_dirichlet_from_repo_code_raises(self):
        # A frame whose file sits under repro/ (and not under tests/) counts
        # as repo runtime code.
        call = compile(
            "np.random.dirichlet([1.0, 1.0])", "/src/repro/fake/module.py", "eval"
        )
        with sanitized():
            with pytest.raises(DeterminismViolation, match="numpy.random.dirichlet"):
                eval(call, {"np": np})

    def test_every_numpy_global_the_lint_rule_names_is_guarded(self):
        names = [name for name in rule_rng._NUMPY_GLOBAL_FNS if hasattr(np.random, name)]
        with sanitized():
            unguarded = [
                name for name in names
                if not getattr(getattr(np.random, name), "__repro_sanitizer__", False)
            ]
        assert names and not unguarded


class TestPassThroughOutsideRepo:
    def test_test_code_may_use_globals(self):
        with sanitized():
            # This frame lives under tests/, not src/repro — allowed.
            assert np.random.rand() is not None
            assert random.random() is not None
            assert time.time() > 0


class TestPatchLifecycle:
    def test_patches_are_restored(self):
        before = (np.random.seed, random.seed, time.time)
        with sanitized():
            assert is_active()
            assert np.random.seed is not before[0]
        assert not is_active()
        assert (np.random.seed, random.seed, time.time) == before
        assert violation_snapshot() == {"active_depth": 0, "patched": 0}

    def test_nesting_is_reentrant(self):
        with sanitized():
            patched = violation_snapshot()["patched"]
            with sanitized():
                # Inner activation must not double-patch.
                assert violation_snapshot() == {"active_depth": 2, "patched": patched}
            assert is_active()
        assert not is_active()

    def test_restored_after_violation(self):
        original = time.time
        with pytest.raises(DeterminismViolation):
            with sanitized():
                set_global_seed(3)
        assert time.time is original
        assert not is_active()

    def test_rng_only_mode_leaves_clock_alone(self):
        original = time.time
        with sanitized(clock=False):
            assert time.time is original
            with pytest.raises(DeterminismViolation):
                set_global_seed(1)
