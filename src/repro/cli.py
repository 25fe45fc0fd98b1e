"""Command-line interface for the paper's experiments and the FL runtime.

Usage::

    python -m repro.cli list
    python -m repro.cli run table1 [--output results/table1.txt]
    python -m repro.cli run figure8 --quick
    python -m repro.cli run all --quick --output results/
    python -m repro.cli fl --scheduler semi-sync --deadline 2.0 \
        --executor process --workers 2 --heterogeneous --straggler 2
    python -m repro.cli fl --scenario uniform-edge --clients 256 \
        --client-fraction 0.05 --executor process --workers 2
    python -m repro.cli fl --codec-workers 1
    python -m repro.cli fl --scenario unreliable-server --checkpoint-dir ckpts
    python -m repro.cli fl --scenario unreliable-server --checkpoint-dir ckpts --resume
    python -m repro.cli fl --monitor-port 8700 --history-out history.json
    python -m repro.cli report --history history.json --out report.md

``run`` regenerates one of the paper's tables/figures (``--quick`` shrinks
the workload so a full sweep completes in a few minutes).  ``fl`` drives the
layered federated runtime directly: pick a round scheduler (sync / semi-sync
/ async), an executor (serial / process) and a transport (homogeneous or a
heterogeneous edge fleet with injected stragglers and dropout).  ``report``
renders the deterministic post-run error-analysis markdown from a saved
history (``fl --history-out``); ``fl --monitor-port`` serves a live status
dashboard while the simulation runs.  Performance is measured by the repo
benchmark, ``perf/run.py``, not by this CLI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Optional

from repro import experiments
from repro.experiments.reporting import ExperimentResult

#: Experiment id -> (harness, quick-mode keyword arguments).
_EXPERIMENTS: Dict[str, tuple] = {
    "table1": (experiments.run_table1, {"sample_elements": 60_000}),
    "table2": (experiments.run_table2, {}),
    "table3": (experiments.run_table3, {}),
    "table4": (experiments.run_table4, {}),
    "table5": (experiments.run_table5, {"max_elements_per_tensor": 40_000}),
    "figure2": (experiments.run_figure2, {}),
    "figure3": (experiments.run_figure3, {"num_values": 100_000}),
    "figure4": (experiments.run_figure4, {"rounds": 4, "samples": 360, "compressors": (None, "sz2")}),
    "figure5": (experiments.run_figure5, {"train_epochs": 4, "samples": 300}),
    "figure6": (experiments.run_figure6, {"rounds": 1, "samples": 240}),
    "figure7": (experiments.run_figure7, {"max_elements_per_tensor": 40_000}),
    "figure8": (experiments.run_figure8, {"max_elements_per_tensor": 40_000}),
    "figure9": (experiments.run_figure9, {}),
    "figure10": (experiments.run_figure10, {"num_values": 100_000}),
}


def available_experiments() -> list:
    """Experiment identifiers accepted by ``run``."""
    return sorted(_EXPERIMENTS)


def run_experiment(name: str, quick: bool = False) -> ExperimentResult:
    """Run one experiment harness by identifier."""
    key = name.lower()
    if key not in _EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {available_experiments()}")
    harness, quick_kwargs = _EXPERIMENTS[key]
    kwargs = quick_kwargs if quick else {}
    return harness(**kwargs)


def _write_or_print(result: ExperimentResult, output: Optional[Path], name: str) -> None:
    text = result.to_text()
    if output is None:
        print(text)
        print()
        return
    if output.suffix:  # explicit file
        destination = output
    else:  # directory
        output.mkdir(parents=True, exist_ok=True)
        destination = output / f"{name}.txt"
    destination.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {destination}")


def run_fl(
    model: str = "resnet50",
    dataset: str = "cifar10",
    rounds: Optional[int] = None,
    clients: Optional[int] = None,
    samples: Optional[int] = None,
    error_bound: Optional[float] = 1e-2,
    scheduler: str = "sync",
    deadline_seconds: float = 5.0,
    mixing_rate: float = 0.5,
    executor: str = "serial",
    workers: int = 4,
    heterogeneous: bool = False,
    stragglers: tuple = (),
    straggler_factor: float = 10.0,
    dropout: float = 0.0,
    scenario: Optional[str] = None,
    client_fraction: Optional[float] = None,
    codec_workers: Optional[int] = None,
    seed: int = 0,
    checkpoint_dir: Optional[Path] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    monitor=None,
):
    """Run one federated simulation through the layered runtime.

    ``scenario`` selects a fleet preset from :mod:`repro.fl.scenarios`
    (``uniform-edge`` / ``diurnal`` / ``flash-crowd``), which supplies the
    transport, round scheduler, participation schedule *and* the default
    fleet shape (the preset's ``num_clients`` / ``rounds`` /
    ``client_fraction`` unless overridden on the command line) — the
    scheduler, link and dropout arguments are then unused (the command line
    refuses to combine their flags with ``--scenario``).
    Without a scenario, ``rounds`` and ``clients`` default to 3 and 4.
    ``checkpoint_dir`` makes the run crash-safe (a snapshot is written after
    every ``checkpoint_every``-th round); ``resume=True`` restores the latest
    snapshot from that directory before running, completing an interrupted
    run bit-identically.  ``monitor`` attaches a
    :class:`~repro.obs.RunMonitor` to the runtime (strictly passive — the
    simulated outcome is bit-identical with or without it).  Returns the
    :class:`~repro.fl.TrainingHistory`; the CLI prints its rows.
    """
    from repro.core import FedSZCompressor
    from repro.experiments.workloads import build_federated_setup
    from repro.fl import (
        FederatedRuntime,
        Transport,
        build_executor,
        build_fleet_runtime,
        edge_fleet_specs,
        get_scenario,
        get_scheduler,
    )

    preset = None
    if scenario is not None:
        overrides = {
            key: value
            for key, value in (
                ("num_clients", clients),
                ("rounds", rounds),
                ("client_fraction", client_fraction),
            )
            if value is not None
        }
        preset = get_scenario(scenario, **overrides)
        clients = preset.num_clients
        rounds = preset.rounds
    else:
        clients = 4 if clients is None else clients
        rounds = 3 if rounds is None else rounds

    if samples is None:
        # The 80/20 split must leave every client at least one training
        # sample, so the default dataset grows with the fleet.
        samples = max(400, -(-3 * clients // 2))
    setup = build_federated_setup(
        model_name=model,
        dataset_name=dataset,
        num_clients=clients,
        rounds=rounds,
        samples=samples,
        seed=seed,
    )
    from repro.fl.scheduler import canonical_scheduler_name

    codec = (
        None
        if error_bound is None
        else FedSZCompressor(error_bound=error_bound, max_codec_workers=codec_workers)
    )

    run_kwargs = {}
    if checkpoint_dir is not None:
        run_kwargs.update(checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every)
    elif checkpoint_every != 1:
        # Silently ignoring the cadence would let the user believe the run is
        # crash-safe when nothing is being written.
        raise ValueError("--checkpoint-every requires --checkpoint-dir")
    if resume:
        if checkpoint_dir is None:
            raise ValueError("--resume requires --checkpoint-dir")
        run_kwargs["resume"] = True

    if preset is not None:
        runtime = build_fleet_runtime(
            preset,
            setup.model_fn,
            setup.train_dataset,
            setup.validation_dataset,
            codec=codec,
            executor=build_executor(executor, workers),
            # Train with the same hyper-parameters as the non-scenario path;
            # the preset only decides fleet shape, links and availability.
            seed=setup.config.seed,
            batch_size=setup.config.batch_size,
            learning_rate=setup.config.learning_rate,
            local_epochs=setup.config.local_epochs,
            momentum=setup.config.momentum,
            weight_decay=setup.config.weight_decay,
            bandwidth_mbps=setup.config.bandwidth_mbps,
            eval_batch_size=setup.config.eval_batch_size,
            monitor=monitor,
        )
        try:
            return runtime.run(**run_kwargs)
        finally:
            runtime.close()

    scheduler_kwargs = {}
    canonical = canonical_scheduler_name(scheduler)
    if canonical == "semi-sync":
        scheduler_kwargs["deadline_seconds"] = deadline_seconds
    elif canonical == "async":
        scheduler_kwargs["mixing_rate"] = mixing_rate
    transport = None
    if heterogeneous or stragglers or dropout > 0:
        transport = Transport.heterogeneous(
            edge_fleet_specs(
                clients,
                straggler_ids=stragglers,
                straggler_factor=straggler_factor,
                dropout_probability=dropout,
            )
        )
    config = setup.config
    if client_fraction is not None:
        from dataclasses import replace

        config = replace(config, client_fraction=client_fraction)
    runtime = FederatedRuntime(
        setup.model_fn,
        setup.train_dataset,
        setup.validation_dataset,
        config,
        codec=codec,
        scheduler=get_scheduler(scheduler, **scheduler_kwargs),
        executor=build_executor(executor, workers),
        transport=transport,
        monitor=monitor,
    )
    try:
        return runtime.run(**run_kwargs)
    finally:
        runtime.close()


#: Flags whose job a ``--scenario`` preset takes over; each defaults to
#: "not given" (None / False / []) so an explicit use is detectable.
_SCENARIO_OWNED_FLAGS = {
    "--scheduler": "scheduler",
    "--deadline": "deadline",
    "--mixing-rate": "mixing_rate",
    "--heterogeneous": "heterogeneous",
    "--straggler": "straggler",
    "--dropout": "dropout",
}


def _run_fl_from_args(arguments) -> "object":
    if arguments.scenario is not None:
        for flag, dest in _SCENARIO_OWNED_FLAGS.items():
            if getattr(arguments, dest) not in (None, False, []):
                # Silently dropping the flag would run a different experiment
                # from the one the command line describes.
                raise ValueError(
                    f"{flag} cannot be combined with --scenario: the "
                    f"{arguments.scenario!r} preset supplies its own scheduler, "
                    "links and dropout"
                )
    monitor = None
    server = None
    if arguments.monitor_port is not None:
        from repro.obs import MonitorServer, RunMonitor

        monitor = RunMonitor()
        server = MonitorServer(monitor, port=arguments.monitor_port).start()
        print(f"monitor: {server.url}/ (JSON at {server.url}/api/status)")
    try:
        return _call_run_fl(arguments, monitor)
    finally:
        if server is not None:
            server.stop()


def _call_run_fl(arguments, monitor) -> "object":
    # Flags left off the command line (None) fall to run_fl's own defaults.
    given = {
        parameter: value
        for parameter, value in (
            ("scheduler", arguments.scheduler),
            ("deadline_seconds", arguments.deadline),
            ("mixing_rate", arguments.mixing_rate),
            ("dropout", arguments.dropout),
        )
        if value is not None
    }
    return run_fl(
        model=arguments.model,
        dataset=arguments.dataset,
        rounds=arguments.rounds,
        clients=arguments.clients,
        samples=arguments.samples,
        error_bound=None if arguments.uncompressed else arguments.error_bound,
        executor=arguments.executor,
        workers=arguments.workers,
        heterogeneous=arguments.heterogeneous,
        stragglers=tuple(arguments.straggler),
        straggler_factor=arguments.straggler_factor,
        scenario=arguments.scenario,
        client_fraction=arguments.client_fraction,
        codec_workers=arguments.codec_workers,
        seed=arguments.seed,
        checkpoint_dir=arguments.checkpoint_dir,
        checkpoint_every=arguments.checkpoint_every,
        resume=arguments.resume,
        monitor=monitor,
        **given,
    )


def _print_fl_history(history, per_client: bool) -> None:
    from repro.experiments.reporting import render_table

    rows = []
    for record in history.records:
        rows.append(
            {
                "round": record.round_index,
                "accuracy": record.global_accuracy,
                "uplink_mb": record.uplink_bytes / 1e6,
                "ratio": record.mean_compression_ratio,
                "round_seconds": record.simulated_round_seconds,
                "stragglers": record.straggler_clients,
                "dropped": record.dropped_clients,
            }
        )
    print(render_table(rows))
    if per_client:
        print()
        print(render_table(history.client_rows()))


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id (e.g. table1, figure8) or 'all'")
    run_parser.add_argument("--quick", action="store_true", help="use reduced workloads")
    run_parser.add_argument(
        "--output", type=Path, default=None, help="file (or directory for 'all') to write results to"
    )

    fl_parser = subparsers.add_parser("fl", help="run a federated simulation")
    fl_parser.add_argument("--model", default="resnet50",
                           choices=["resnet50", "mobilenetv2", "alexnet"])
    fl_parser.add_argument("--dataset", default="cifar10")
    fl_parser.add_argument("--rounds", type=int, default=None,
                           help="communication rounds (default 3, or the "
                                "scenario preset's round count)")
    fl_parser.add_argument("--clients", type=int, default=None,
                           help="fleet size (default 4, or the scenario "
                                "preset's fleet size, e.g. 256)")
    fl_parser.add_argument("--samples", type=int, default=None,
                           help="synthetic dataset size (default 400, scaled "
                                "up for large fleets so the 80/20 split "
                                "leaves every client a training sample)")
    fl_parser.add_argument("--error-bound", type=float, default=1e-2,
                           help="FedSZ REL bound for the uplink codec")
    fl_parser.add_argument("--uncompressed", action="store_true",
                           help="ship raw updates (no codec)")
    fl_parser.add_argument("--scheduler", default=None,
                           choices=["sync", "semi-sync", "async"],
                           help="round strategy (default sync)")
    fl_parser.add_argument("--deadline", type=float, default=None,
                           help="semi-sync straggler deadline (simulated "
                                "seconds, default 5)")
    fl_parser.add_argument("--mixing-rate", type=float, default=None,
                           help="async staleness-mixing rate (default 0.5)")
    fl_parser.add_argument("--executor", default="serial",
                           choices=["serial", "process"],
                           help="how client work runs each round: serial loop "
                                "or shared-nothing worker processes — "
                                "bit-identical either way")
    fl_parser.add_argument("--workers", type=int, default=4)
    fl_parser.add_argument("--heterogeneous", action="store_true",
                           help="give each client its own edge link")
    fl_parser.add_argument("--straggler", type=int, action="append", default=[],
                           help="client id to turn into a straggler (repeatable)")
    fl_parser.add_argument("--straggler-factor", type=float, default=10.0)
    fl_parser.add_argument("--dropout", type=float, default=None,
                           help="per-round update dropout probability "
                                "(default 0)")
    from repro.fl.scenarios import available_scenarios

    fl_parser.add_argument("--scenario", default=None,
                           choices=[preset.name for preset in available_scenarios()],
                           help="fleet preset (supplies transport, scheduler, "
                                "availability schedule and default fleet shape; "
                                "cannot be combined with --scheduler / "
                                "--deadline / --mixing-rate / --heterogeneous "
                                "/ --straggler / --dropout)")
    fl_parser.add_argument("--client-fraction", type=float, default=None,
                           help="fraction of clients sampled per round "
                                "(participants = ceil(fraction x clients))")
    fl_parser.add_argument("--codec-workers", type=int, default=None,
                           help="cap on the codec's thread pool, which runs "
                                "only when two or more tensors are big enough "
                                "to scale (1: always serial; default: cpu "
                                "count; payloads are byte-identical at any "
                                "value)")
    fl_parser.add_argument("--seed", type=int, default=0)
    fl_parser.add_argument("--checkpoint-dir", type=Path, default=None,
                           help="write a crash-safe run snapshot here after "
                                "every --checkpoint-every rounds (atomic, "
                                "schema-versioned, last 3 kept)")
    fl_parser.add_argument("--checkpoint-every", type=int, default=1,
                           help="rounds between snapshots (default 1)")
    fl_parser.add_argument("--resume", action="store_true",
                           help="restore the latest snapshot from "
                                "--checkpoint-dir before running and complete "
                                "the interrupted run bit-identically")
    fl_parser.add_argument("--per-client", action="store_true",
                           help="also print per-client round stats")
    fl_parser.add_argument("--monitor-port", type=int, default=None,
                           help="serve a live status dashboard + JSON API on "
                                "this port while the run executes (0 picks an "
                                "ephemeral port; the URL is printed)")
    fl_parser.add_argument("--history-out", type=Path, default=None,
                           help="write the full training history as schema-"
                                "tagged JSON (input for 'repro.cli report')")

    report_parser = subparsers.add_parser(
        "report", help="render a post-run error-analysis markdown report"
    )
    report_parser.add_argument("--history", type=Path, default=None,
                               help="training-history JSON written by "
                                    "'fl --history-out'")
    report_parser.add_argument("--out", type=Path, default=None,
                               help="write the markdown here instead of stdout")
    report_parser.add_argument("--title", default="Run error-analysis report",
                               help="report heading")
    return parser


def _run_report(arguments) -> int:
    from repro.fl.history import TrainingHistory
    from repro.obs.report import build_error_analysis

    if arguments.history is None:
        print("report needs --history", file=sys.stderr)
        return 2
    try:
        history = TrainingHistory.load(arguments.history)
    except (OSError, ValueError, KeyError) as error:
        print(error, file=sys.stderr)
        return 2
    text = build_error_analysis(history=history, title=arguments.title)
    if arguments.out is None:
        print(text, end="")
    else:
        arguments.out.parent.mkdir(parents=True, exist_ok=True)
        arguments.out.write_text(text, encoding="utf-8")
        print(f"wrote {arguments.out}")
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = build_parser().parse_args(argv)
    if arguments.command == "list":
        for name in available_experiments():
            print(name)
        return 0

    if arguments.command == "report":
        return _run_report(arguments)

    if arguments.command == "fl":
        from repro.fl.checkpoint import CheckpointError
        from repro.fl.scenarios import SimulatedCrash

        try:
            history = _run_fl_from_args(arguments)
        except SimulatedCrash as crash:
            print(crash, file=sys.stderr)
            if arguments.checkpoint_dir is not None:
                print(
                    f"re-run with --checkpoint-dir {arguments.checkpoint_dir} "
                    "--resume to finish the remaining rounds",
                    file=sys.stderr,
                )
            else:
                print(
                    "the run was not checkpointed (no --checkpoint-dir); its "
                    "progress is lost",
                    file=sys.stderr,
                )
            return 3
        except (CheckpointError, ValueError) as error:
            print(error, file=sys.stderr)
            return 2
        if arguments.history_out is not None:
            history.save(arguments.history_out)
            print(f"wrote {arguments.history_out}")
        _print_fl_history(history, per_client=arguments.per_client)
        return 0

    if arguments.experiment.lower() == "all":
        for name in available_experiments():
            result = run_experiment(name, quick=arguments.quick)
            _write_or_print(result, arguments.output, name)
        return 0

    try:
        result = run_experiment(arguments.experiment, quick=arguments.quick)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    _write_or_print(result, arguments.output, arguments.experiment.lower())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
