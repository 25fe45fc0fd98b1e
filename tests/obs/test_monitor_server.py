"""Live-monitor acceptance tests.

Two guarantees are pinned here:

* **passivity** — a monitored serial run is bit-identical to an unmonitored
  one (``deterministic_rows()`` and final weights), because the monitor only
  reads completed records;
* **liveness** — while the runtime is mid-run, the stdlib HTTP endpoint
  serves a consistent snapshot whose round count is strictly between 0 and
  the target (polled from a fault injector that never raises, which the
  run loop calls after every round).
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.core import FedSZCompressor
from repro.data import load_dataset
from repro.fl import FaultInjector, FederatedRuntime, FLConfig, LinkSpec, Transport
from repro.nn.models import create_model
from repro.obs import MonitorServer, RunMonitor


@pytest.fixture(scope="module")
def data():
    full = load_dataset("cifar10", num_samples=160, image_size=8, seed=0)
    return full.split(0.75, seed=1)


def _build_runtime(data, monitor=None, rounds: int = 2) -> FederatedRuntime:
    train, val = data
    return FederatedRuntime(
        lambda: create_model("resnet18", "tiny", num_classes=10, seed=7),
        train,
        val,
        FLConfig(num_clients=3, rounds=rounds, batch_size=16, local_epochs=1, seed=3),
        codec=FedSZCompressor(error_bound=1e-2),
        transport=Transport.heterogeneous(
            [LinkSpec(bandwidth_mbps=bw, dropout_probability=0.3) for bw in (5.0, 10.0, 25.0)]
        ),
        monitor=monitor,
    )


def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def test_monitored_run_is_bit_identical_to_unmonitored(data):
    plain = _build_runtime(data)
    plain.run()
    plain.close()

    monitor = RunMonitor()
    observed = _build_runtime(data, monitor=monitor)
    observed.run()
    observed.close()

    assert observed.history.deterministic_rows() == plain.history.deterministic_rows()
    plain_state = plain.server.global_state()
    observed_state = observed.server.global_state()
    assert plain_state.keys() == observed_state.keys()
    for name in plain_state:
        np.testing.assert_array_equal(plain_state[name], observed_state[name], err_msg=name)

    snapshot = monitor.snapshot()
    assert snapshot["status"] == "completed"
    assert snapshot["progress"]["rounds_completed"] == 2
    assert len(snapshot["rounds"]) == 2
    assert snapshot["run"]["codec"] == "FedSZCompressor"
    assert len(snapshot["codec"]["error_bound_trajectory"]) == 2


def test_live_endpoint_serves_mid_run_snapshots(data):
    monitor = RunMonitor()
    mid_run = []

    with MonitorServer(monitor, port=0) as server:
        class Poll(FaultInjector):
            def after_round(self, round_index):
                mid_run.append(_get_json(f"{server.url}/api/status"))

        runtime = _build_runtime(data, monitor=monitor, rounds=3)
        runtime.run(fault_injector=Poll())
        runtime.close()

        final = _get_json(f"{server.url}/api/status")

    assert [s["progress"]["rounds_completed"] for s in mid_run] == [1, 2, 3]
    assert mid_run[0]["status"] == "running"
    assert 0 < mid_run[0]["progress"]["fraction"] < 1
    assert final["status"] == "completed"
    assert final["progress"]["rounds_completed"] == 3
    assert len(final["codec"]["ratio_trajectory"]) == 3
    assert all(ratio > 1.0 for ratio in final["codec"]["ratio_trajectory"])
    assert {c["client_id"] for c in final["clients"]} == {0, 1, 2}


def test_api_routes_and_dashboard(data):
    monitor = RunMonitor()
    runtime = _build_runtime(data, monitor=monitor)
    runtime.run()
    runtime.close()

    with MonitorServer(monitor, port=0) as server:
        health = _get_json(f"{server.url}/api/health")
        assert health == {"ok": True, "status": "completed", "rounds_completed": 2}

        rounds = _get_json(f"{server.url}/api/rounds")
        assert [r["round"] for r in rounds["rounds"]] == [0, 1]
        assert set(rounds["codec"]) == {
            "error_bound_trajectory", "ratio_trajectory", "bound_utilization_trajectory",
        }

        clients = _get_json(f"{server.url}/api/clients")
        ranking = [
            (-c["dropped"], -c["stragglers"], -c["max_turnaround_seconds"], c["client_id"])
            for c in clients["clients"]
        ]
        assert ranking == sorted(ranking)
        assert all("mean_turnaround_seconds" in c for c in clients["clients"])

        with urllib.request.urlopen(f"{server.url}/", timeout=10) as response:
            page = response.read().decode("utf-8")
        assert "repro fleet monitor" in page and "/api/status" in page

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/api/nope", timeout=10)
        assert excinfo.value.code == 404


def test_checkpoint_hook_feeds_age_display(data, tmp_path):
    ticks = iter(range(100))
    monitor = RunMonitor(clock=lambda: float(next(ticks)))
    runtime = _build_runtime(data, monitor=monitor)
    runtime.run(checkpoint_dir=tmp_path, checkpoint_every=1)
    runtime.close()

    snapshot = monitor.snapshot()
    assert snapshot["checkpoint"]["count"] == 2
    assert snapshot["checkpoint"]["last_round"] == 1
    assert snapshot["checkpoint"]["rounds_behind"] == 0
    # The fake clock ticks once per observation, so age is a positive integer.
    assert snapshot["checkpoint"]["age_seconds"] > 0


def test_monitor_unit_behaviour():
    monitor = RunMonitor(clock=lambda: 0.0)
    monitor.fault_injected(3, RuntimeError("injected server crash"))
    monitor.run_finished(status="crashed", error=RuntimeError("injected server crash"))
    snapshot = monitor.snapshot()
    assert snapshot["status"] == "crashed"
    assert snapshot["faults"] == [
        {"round": 3, "kind": "RuntimeError", "detail": "injected server crash"}
    ]


def test_snapshot_is_a_deep_copy():
    monitor = RunMonitor(clock=lambda: 0.0)
    first = monitor.snapshot()
    first["rounds"].append({"round": 99})
    assert monitor.snapshot()["rounds"] == []


def test_concurrent_snapshots_do_not_race(data):
    monitor = RunMonitor(clock=lambda: 0.0)
    record = _build_runtime(data).run_round()
    errors = []

    def reader():
        try:
            for _ in range(200):
                json.dumps(monitor.snapshot())
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    for _ in range(200):
        monitor.round_completed(record)
    for thread in threads:
        thread.join()
    assert errors == []
    assert monitor.snapshot()["progress"]["rounds_completed"] == 200
