"""What each scheduler must decide when it closes a round, as pure functions.

Each oracle takes one round's per-client stats (anything with ``client_id``,
``turnaround_seconds`` and ``delivered``) and the scheduler, and returns
``({client_id: (staleness, weight)} for aggregated clients, round seconds)``.
``tests/integration/test_event_engine.py`` checks recorded 256-client rounds
against them and ``tests/fl/test_events.py`` checks scripted tie-heavy rounds.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations


def _sync_oracle(stats, scheduler):
    aggregated = {s.client_id: (0, 0.0) for s in stats if s.delivered}
    # The barrier waits for everyone, including updates lost in transit.
    return aggregated, max((s.turnaround_seconds for s in stats), default=0.0)


def _semi_sync_oracle(stats, scheduler):
    deadline = scheduler.deadline_seconds
    on_time = [s for s in stats if s.delivered and s.turnaround_seconds <= deadline]
    if len(on_time) < len(stats):  # someone is late or lost: wait out the deadline
        seconds = deadline
    else:
        seconds = max((s.turnaround_seconds for s in on_time), default=0.0)
    return {s.client_id: (0, 0.0) for s in on_time}, seconds


def _async_oracle(stats, scheduler):
    arrivals = sorted(
        (s for s in stats if s.delivered),
        key=lambda s: (s.turnaround_seconds, s.client_id),
    )
    aggregated = {
        s.client_id: (
            i,
            scheduler.mixing_rate * (1.0 + i) ** (-scheduler.staleness_exponent),
        )
        for i, s in enumerate(arrivals)
    }
    return aggregated, max((s.turnaround_seconds for s in arrivals), default=0.0)


ORACLES = {"sync": _sync_oracle, "semi-sync": _semi_sync_oracle, "async": _async_oracle}
