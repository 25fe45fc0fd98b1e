"""Tests for the deterministic error-analysis report generator.

The report is a CI artifact that gets diffed across runs, so these tests pin
its markdown byte-for-byte on crafted histories: near-violation rounds,
controller thrash, worst-client rankings, fault timelines and the
empty-history degenerate case.
"""

from __future__ import annotations

import pytest

from repro.fl.history import ClientRoundStat, RoundRecord, TrainingHistory
from repro.obs.report import NEAR_VIOLATION_THRESHOLD, build_error_analysis


def make_record(round_index: int, **overrides) -> RoundRecord:
    defaults = dict(
        round_index=round_index,
        global_accuracy=0.5,
        global_loss=1.0,
        mean_client_loss=1.1,
        mean_client_accuracy=0.45,
        uplink_bytes=1_000_000,
        uplink_seconds=2.0,
        compression_seconds=0.1,
        decompression_seconds=0.05,
        train_seconds=1.0,
        validation_seconds=0.2,
        mean_compression_ratio=5.0,
    )
    defaults.update(overrides)
    return RoundRecord(**defaults)


def make_stat(client_id: int, **overrides) -> ClientRoundStat:
    defaults = dict(
        client_id=client_id,
        num_samples=32,
        train_loss=1.0,
        train_accuracy=0.4,
        train_seconds=1.0,
    )
    defaults.update(overrides)
    return ClientRoundStat(**defaults)


@pytest.fixture
def crafted_history() -> TrainingHistory:
    """Three rounds: a calm one, a near-violation, and a violation w/ faults."""
    history = TrainingHistory()
    history.add(
        make_record(
            0,
            error_bound=0.01,
            error_bound_mode="REL",
            tensor_bound_utilization={"conv.weight": 0.5, "fc.weight": 0.4},
            client_stats=[
                make_stat(0, bound_utilization=0.5, turnaround_seconds=1.0),
                make_stat(1, bound_utilization=0.4, turnaround_seconds=2.0),
            ],
            participating_clients=2,
        )
    )
    history.add(
        make_record(
            1,
            error_bound=0.02,
            error_bound_mode="REL",
            tensor_bound_utilization={"conv.weight": 0.95, "fc.weight": 0.3},
            client_stats=[
                make_stat(0, bound_utilization=0.95, turnaround_seconds=1.0),
                make_stat(
                    1,
                    bound_utilization=0.0,
                    turnaround_seconds=9.0,
                    delivered=False,
                    aggregated=False,
                    payload_nbytes=250_000,
                ),
            ],
            participating_clients=2,
            dropped_clients=1,
        )
    )
    history.add(
        make_record(
            2,
            error_bound=0.01,
            error_bound_mode="REL",
            tensor_bound_utilization={"conv.weight": 1.25, "fc.weight": 0.2},
            client_stats=[
                make_stat(0, bound_utilization=1.25, turnaround_seconds=1.0),
                make_stat(
                    1,
                    bound_utilization=0.0,
                    turnaround_seconds=0.0,
                    delivered=False,
                    aggregated=False,
                    payload_nbytes=0,
                ),
                make_stat(
                    2,
                    bound_utilization=0.3,
                    turnaround_seconds=8.0,
                    aggregated=False,
                ),
            ],
            participating_clients=3,
            dropped_clients=1,
            straggler_clients=1,
        )
    )
    return history


def test_report_is_deterministic(crafted_history):
    assert build_error_analysis(crafted_history) == build_error_analysis(crafted_history)


def test_report_ranks_near_violations_and_flags(crafted_history):
    text = build_error_analysis(crafted_history)
    lines = text.splitlines()
    table = [line for line in lines if line.startswith("| 0 |") or
             line.startswith("| 1 |") or line.startswith("| 2 |")]
    # Round 2 (violated, 1.25) must rank above round 1 (near, 0.95) above 0.
    assert table[0].startswith("| 2 | 1.25 **VIOLATED**")
    assert table[1].startswith("| 1 | 0.95 **NEAR-VIOLATION**")
    assert table[2].startswith("| 0 | 0.5 ")
    assert "`conv.weight`" in table[0]
    assert NEAR_VIOLATION_THRESHOLD == 0.9


def test_report_ranks_worst_clients(crafted_history):
    text = build_error_analysis(crafted_history)
    section = text.split("## Worst clients / links")[1].split("## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and
            not line.startswith("| ---") and not line.startswith("| client")]
    # Client 1: 2 drops -> first.  Client 2: 1 deadline cut -> second.
    assert rows[0].startswith("| 1 | 3 | 2 | 0 |")
    assert rows[1].startswith("| 2 | 1 | 0 | 1 |")
    assert rows[2].startswith("| 0 | 3 | 0 | 0 |")


def test_report_fault_timeline_classifies_losses(crafted_history):
    text = build_error_analysis(crafted_history)
    section = text.split("## Fault timeline")[1]
    # Round 1 drop shipped 250 kB -> transit loss; round 2 drop shipped
    # nothing -> client failure; round 2 also cut a straggler.
    assert "- round 1: client 1 — transit loss (0.25 MB undelivered)" in section
    assert "- round 2: client 1 — client failure (0 MB undelivered)" in section
    assert "- round 2: deadline cut 1 straggler(s) (clients 2)" in section


def test_report_detects_controller_thrash():
    history = TrainingHistory()
    # Bound flip-flops every round: 4 adjustments, 3 direction flips (75%).
    for i, bound in enumerate([0.01, 0.02, 0.01, 0.02, 0.01]):
        history.add(make_record(i, error_bound=bound, error_bound_mode="REL"))
    text = build_error_analysis(history)
    assert "- bound adjustments: 4 over 5 rounds" in text
    assert "- direction flips: 3 (75% of adjustments)" in text
    assert "**THRASHING**" in text


def test_report_calls_monotonic_controller_stable():
    history = TrainingHistory()
    for i, bound in enumerate([0.04, 0.02, 0.01, 0.01, 0.005]):
        history.add(make_record(i, error_bound=bound, error_bound_mode="REL"))
    text = build_error_analysis(history)
    assert "- verdict: stable (mostly monotonic adjustment)." in text
    assert "THRASHING" not in text


def test_report_constant_bound_is_reported_as_static():
    history = TrainingHistory()
    for i in range(4):
        history.add(make_record(i, error_bound=0.01, error_bound_mode="REL"))
    text = build_error_analysis(history)
    assert "Bound held constant at 0.01 for all 4 rounds" in text


def test_empty_history_report_pinned():
    assert build_error_analysis(TrainingHistory()) == (
        "# Run error-analysis report\n"
        "\n"
        "## Run summary\n"
        "\n"
        "No rounds recorded — the run produced an empty history.\n"
        "\n"
        "## Error-bound pressure\n"
        "\n"
        "No bound-utilization data recorded (run was uncompressed, or the "
        "history predates utilization tracking).\n"
        "\n"
        "## Adaptive-controller stability\n"
        "\n"
        "Not enough bound data to assess the controller (0 round(s) with a "
        "recorded bound).\n"
        "\n"
        "## Worst clients / links\n"
        "\n"
        "No per-client stats recorded (legacy history).\n"
        "\n"
        "## Fault timeline\n"
        "\n"
        "No drops, failures or deadline cuts recorded.\n"
    )


def test_no_inputs_report():
    assert "No inputs provided" in build_error_analysis()


def test_history_save_load_round_trips_new_fields(tmp_path, crafted_history):
    path = tmp_path / "history.json"
    crafted_history.save(path)
    loaded = TrainingHistory.load(path)
    assert loaded.serialize() == crafted_history.serialize()
    assert loaded.records[2].tensor_bound_utilization == {
        "conv.weight": 1.25, "fc.weight": 0.2,
    }
    assert loaded.records[1].client_stats[0].bound_utilization == 0.95


def test_history_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"schema": "something.else", "records": []}')
    with pytest.raises(ValueError, match="not a training-history file"):
        TrainingHistory.load(path)
