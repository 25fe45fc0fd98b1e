"""Benchmark workload registry.

A workload is a function that receives a :class:`BenchHarness` and measures a
handful of named metrics.  Workloads cover the three performance-critical
layers of the repo:

* entropy-coding micro-benchmarks (``huffman``, ``bitstream``) that time the
  vectorised hot paths against the scalar references in
  :mod:`repro.compression.reference`, keeping the speedup visible in the
  emitted JSON;
* per-codec state-dict compression (``codecs``) through the full FedSZ
  pipeline for each of SZ2/SZ3/SZx/ZFP;
* a full federated round (``fl_round``) on the scheduler/executor/transport
  stack from :mod:`repro.fl`;
* a fleet-scale round (``fl_fleet``) — 256 lazy clients, 5% sampled per
  round, heterogeneous edge links, bounded model pool — proving the
  O(max_workers) memory path stays fast;
* a mega-fleet round (``fl_fleet_100k``) — 100k clients, 0.02% sampled,
  diurnal availability through the discrete-event engine
  (:mod:`repro.fl.events`), plus a 1M-client availability event stream,
  with events/sec kept in the JSON;
* serial vs process-parallel client execution (``fl_parallel``) — one
  federated round on the shared-nothing worker-process pool fed by the
  fingerprint-keyed broadcast payload cache, asserted bit-identical to the
  serial round, with the measured speedup and the per-worker cache counters
  kept in the JSON;
* crash-safe checkpointing (``checkpoint``) — RunCheckpoint snapshot and
  restore cost for a tiny trained runtime and a paper-scale model, keeping
  the resume subsystem's overhead visible as models grow;
* a fast composite (``tiny``) sized for CI smoke runs.

Register new workloads with :func:`register_workload`; the CLI exposes them
via ``python -m repro.cli bench --workload <name>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.bench.harness import BenchHarness, MetricRecord

WorkloadFn = Callable[[BenchHarness], None]

_WORKLOADS: Dict[str, "WorkloadSpec"] = {}


@dataclass(frozen=True)
class WorkloadSpec:
    """A named benchmark workload."""

    name: str
    description: str
    fn: WorkloadFn


def register_workload(name: str, description: str) -> Callable[[WorkloadFn], WorkloadFn]:
    """Decorator registering ``fn`` as a benchmark workload."""

    def decorator(fn: WorkloadFn) -> WorkloadFn:
        _WORKLOADS[name.lower()] = WorkloadSpec(name=name.lower(), description=description, fn=fn)
        return fn

    return decorator


def available_workloads() -> List[WorkloadSpec]:
    """All registered workloads, sorted by name."""
    return [_WORKLOADS[name] for name in sorted(_WORKLOADS)]


def get_workload(name: str) -> WorkloadSpec:
    """Look up one workload by name."""
    try:
        return _WORKLOADS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_WORKLOADS)}"
        ) from None


def run_workload(name: str, warmup: int = 1, repeats: int = 3) -> List[MetricRecord]:
    """Run one workload under a fresh harness and return its metrics."""
    spec = get_workload(name)
    harness = BenchHarness(warmup=warmup, repeats=repeats)
    spec.fn(harness)
    return harness.records


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------
def _quantization_like_symbols(size: int, seed: int = 0) -> np.ndarray:
    """Skewed integers shaped like error-bounded quantization indices."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.laplace(scale=2.0, size=size)).astype(np.int64)
    return np.clip(values, -64, 64)


def _tiny_state_dict(seed: int = 0) -> Dict[str, np.ndarray]:
    from repro.nn.models import create_model

    return create_model("mobilenetv2", "tiny", seed=seed).state_dict()


def _state_dict_nbytes(state: Dict[str, np.ndarray]) -> int:
    return int(sum(np.asarray(tensor).nbytes for tensor in state.values()))


def _measure_huffman(harness: BenchHarness, symbols: np.ndarray, with_reference: bool) -> None:
    from repro.compression.huffman import HuffmanCode, HuffmanCodec
    from repro.compression.reference import ReferenceHuffmanCodec

    codec = HuffmanCodec()
    payload = codec.encode(symbols)
    table = HuffmanCode.from_symbols(symbols).serialize_table()
    extra = {"payload_bytes": len(payload)}
    harness.measure(
        "huffman_encode",
        lambda timer: codec.encode(symbols),
        items=int(symbols.size),
        nbytes=int(symbols.nbytes),
        extra=extra,
    )
    harness.measure(
        "huffman_decode",
        lambda timer: codec.decode(payload),
        items=int(symbols.size),
        nbytes=int(symbols.nbytes),
    )
    harness.measure(
        "huffman_table_deserialize",
        lambda timer: HuffmanCode.deserialize_table(table),
        nbytes=len(table),
    )
    if with_reference:
        reference = ReferenceHuffmanCodec()
        harness.measure(
            "huffman_encode_reference",
            lambda timer: reference.encode(symbols),
            items=int(symbols.size),
            nbytes=int(symbols.nbytes),
        )
        harness.measure(
            "huffman_decode_reference",
            lambda timer: reference.decode(payload),
            items=int(symbols.size),
            nbytes=int(symbols.nbytes),
        )


def _measure_bitstream(harness: BenchHarness, num_bits: int, num_flags: int, with_reference: bool) -> None:
    from repro.compression.bitstream import BitReader, BitWriter, pack_bit_flags
    from repro.compression.reference import (
        ReferenceBitReader,
        ReferenceBitWriter,
        reference_pack_bit_flags,
    )

    rng = np.random.default_rng(1)
    single_bits = rng.integers(0, 2, size=num_bits).tolist()
    flags = rng.random(num_flags) < 0.3
    values = rng.integers(0, 2**24, size=max(num_bits // 24, 1)).astype(np.uint64)

    def _write_bit_stream(writer_cls):
        def run(timer):
            writer = writer_cls()
            for bit in single_bits:
                writer.write_bit(bit)
            return writer.getvalue()

        return run

    harness.measure("bitwriter_write_bit", _write_bit_stream(BitWriter), items=num_bits)
    harness.measure(
        "bitwriter_fixed_width",
        lambda timer: (lambda w: (w.write_fixed_width(values, 24), w.getvalue()))(BitWriter()),
        items=int(values.size),
    )

    wide_writer = BitWriter()
    wide_writer.write_fixed_width(values, 24)
    wide_payload = wide_writer.getvalue()
    wide_bits = wide_writer.bit_count
    read_width = 1024
    num_reads = wide_bits // read_width

    def _read_bits_stream(reader_cls):
        def run(timer):
            reader = reader_cls(wide_payload, bit_count=wide_bits)
            for _ in range(num_reads):
                reader.read_bits(read_width)

        return run

    harness.measure("bitreader_read_bits", _read_bits_stream(BitReader), items=num_reads)
    harness.measure("pack_bit_flags", lambda timer: pack_bit_flags(flags), items=num_flags)
    if with_reference:
        harness.measure(
            "bitwriter_write_bit_reference",
            _write_bit_stream(ReferenceBitWriter),
            items=num_bits,
        )
        harness.measure(
            "bitreader_read_bits_reference",
            _read_bits_stream(ReferenceBitReader),
            items=num_reads,
        )
        flag_list = flags.tolist()
        harness.measure(
            "pack_bit_flags_reference",
            lambda timer: reference_pack_bit_flags(flag_list),
            items=num_flags,
        )


def _measure_codec(harness: BenchHarness, name: str, state: Dict[str, np.ndarray], error_bound: float) -> None:
    from repro.compression.metrics import compression_ratio
    from repro.core import FedSZCompressor

    codec = FedSZCompressor(error_bound=error_bound, lossy_compressor=name)
    payload = codec.compress(state)
    nbytes = _state_dict_nbytes(state)

    def run(timer):
        with timer.measure("compress"):
            blob = codec.compress(state)
        with timer.measure("decompress"):
            codec.decompress(blob)

    harness.measure(
        f"codec_{name}_roundtrip",
        run,
        nbytes=nbytes,
        extra={
            "compressed_bytes": len(payload),
            "ratio": compression_ratio(nbytes, len(payload)),
        },
    )


def _run_fl_round(harness: BenchHarness, metric: str, samples: int, clients: int) -> None:
    from repro.core import FedSZCompressor
    from repro.experiments.workloads import build_federated_setup
    from repro.fl import FederatedRuntime, Transport, edge_fleet_specs

    setup = build_federated_setup(
        model_name="alexnet",
        num_clients=clients,
        rounds=1,
        samples=samples,
        local_epochs=1,
        seed=7,
    )
    runtime = FederatedRuntime(
        setup.model_fn,
        setup.train_dataset,
        setup.validation_dataset,
        setup.config,
        codec=FedSZCompressor(error_bound=1e-2),
        transport=Transport.heterogeneous(edge_fleet_specs(clients)),
    )

    # Each warmup/timed call executes one additional federated round so setup
    # cost stays out of the measurement and every repeat does the same work.
    def run(timer):
        with timer.measure("round"):
            return runtime.run_round()

    harness.measure(metric, run, items=clients, extra={"samples": samples, "clients": clients})


def _measure_fl_parallel(
    harness: BenchHarness,
    metric: str = "fl_parallel",
    workers: int = 4,
    samples: int = 240,
    clients: int = 4,
) -> None:
    """Serial vs process-parallel federated round on the same seeded setup.

    Both runtimes execute identical simulated work — the deterministic round
    rows are asserted equal after the measurements, so the speedup never comes
    from doing different work.  On a >= ``workers``-core host the worker
    processes overlap whole clients (pure-Python training loop included) and
    the speedup should approach the worker count; on fewer cores it degrades
    toward 1x, which the committed baseline's normalized compare tolerates.
    A third metric times the once-per-round broadcast wire-buffer build (the
    cache-miss cost the fingerprint key amortises away on repeat rounds).
    """
    from repro.core import FedSZCompressor
    from repro.experiments.workloads import build_federated_setup
    from repro.fl import (
        FederatedRuntime,
        ProcessParallelExecutor,
        Transport,
        edge_fleet_specs,
    )
    from repro.fl.broadcast import BroadcastCache

    def build(executor=None) -> FederatedRuntime:
        setup = build_federated_setup(
            model_name="alexnet",
            num_clients=clients,
            rounds=1,
            samples=samples,
            local_epochs=1,
            seed=7,
        )
        return FederatedRuntime(
            setup.model_fn,
            setup.train_dataset,
            setup.validation_dataset,
            setup.config,
            codec=FedSZCompressor(error_bound=1e-2),
            transport=Transport.heterogeneous(edge_fleet_specs(clients)),
            executor=executor,
        )

    serial = build()
    parallel = build(ProcessParallelExecutor(max_workers=workers))
    try:
        state = serial.server.global_state()

        # Cache-miss cost of preparing one round's broadcast wire buffer (a
        # fresh cache per call so every repeat is a miss, like round one).
        def run_broadcast(timer):
            BroadcastCache().round_state(
                state, codec=None, compress_downlink=False, build_payload=True
            )

        harness.measure(
            f"{metric}_broadcast",
            run_broadcast,
            nbytes=_state_dict_nbytes(state),
        )

        # Each warmup/timed call executes one additional federated round on
        # both runtimes, keeping their histories in lockstep for the
        # bit-identity assertion below.
        def run_serial(timer):
            with timer.measure("round"):
                return serial.run_round()

        def run_parallel(timer):
            with timer.measure("round"):
                return parallel.run_round()

        serial_record = harness.measure(
            f"{metric}_serial",
            run_serial,
            items=clients,
            extra={"samples": samples, "clients": clients},
        )
        parallel_record = harness.measure(
            f"{metric}_workers{workers}",
            run_parallel,
            items=clients,
            extra={"samples": samples, "clients": clients, "workers": workers},
        )
        if (
            parallel.history.deterministic_rows()
            != serial.history.deterministic_rows()
        ):
            raise RuntimeError("process-parallel rounds must be bit-identical to serial")
        if parallel_record.seconds > 0:
            parallel_record.extra["speedup_vs_serial"] = (
                serial_record.seconds / parallel_record.seconds
            )
        parallel_record.extra["broadcast_cache"] = (
            parallel.executor.broadcast_cache_stats()
        )
    finally:
        serial.close()
        parallel.close()


def _run_fleet_round(
    harness: BenchHarness,
    metric: str,
    clients: int,
    client_fraction: float,
    samples: int,
    workers: int = 4,
) -> None:
    """Time one round of a sub-sampled edge fleet on the lazy-client runtime.

    Exercises the fleet-scale path end to end: lazy client materialisation,
    the bounded model pool, heterogeneous links and participant sampling.
    Setup (partitioning ``clients`` datasets, binding links) is timed
    separately from the round so regressions in either show up on their own.
    """
    from repro.core import FedSZCompressor
    from repro.experiments.workloads import build_federated_setup
    from repro.fl import ParallelExecutor, build_fleet_runtime, get_scenario

    setup = build_federated_setup(
        model_name="mobilenetv2",
        num_clients=clients,
        rounds=1,
        samples=samples,
        local_epochs=1,
        seed=7,
    )
    scenario = get_scenario(
        "uniform-edge", num_clients=clients, client_fraction=client_fraction
    )

    def build():
        return build_fleet_runtime(
            scenario,
            setup.model_fn,
            setup.train_dataset,
            setup.validation_dataset,
            codec=FedSZCompressor(error_bound=1e-2),
            executor=ParallelExecutor(max_workers=workers),
            seed=7,
            batch_size=16,
        )

    harness.measure(
        f"{metric}_setup",
        lambda timer: build(),
        items=clients,
        extra={"clients": clients},
    )

    runtime = build()

    # Each warmup/timed call executes one additional federated round so setup
    # cost stays out of the measurement and every repeat does the same work.
    def run(timer):
        with timer.measure("round"):
            return runtime.run_round()

    record = harness.measure(
        metric,
        run,
        items=clients,
        extra={"clients": clients, "client_fraction": client_fraction},
    )
    # Counters are only meaningful after the rounds above actually ran: they
    # are the memory proof (resident models bounded by the worker budget, not
    # the fleet) this workload exists to keep visible in the JSON.
    record.extra.update(
        resident_models=runtime.model_pool.created,
        materialized_clients=runtime.clients.materialized_count,
    )

    serial_runtime = build_fleet_runtime(
        scenario,
        setup.model_fn,
        setup.train_dataset,
        setup.validation_dataset,
        codec=FedSZCompressor(error_bound=1e-2),
        seed=7,
        batch_size=16,
    )

    def run_serial(timer):
        with timer.measure("round"):
            return serial_runtime.run_round()

    # Third metric: the single-resident-model serial path.  It also keeps the
    # CI gate's --normalize meaningful — with only two metrics the median
    # equals their mean, and a single-metric regression can never exceed the
    # tolerance after normalization.
    serial_record = harness.measure(
        f"{metric}_round_serial",
        run_serial,
        items=clients,
        extra={"clients": clients, "client_fraction": client_fraction},
    )
    serial_record.extra["resident_models"] = serial_runtime.model_pool.created


def _run_mega_fleet(
    harness: BenchHarness,
    metric: str,
    clients: int = 100_000,
    availability_clients: int = 1_000_000,
) -> None:
    """Event-engine rounds at 100k clients plus a 1M-client availability sweep.

    The round metric drives the ``mega-fleet`` scenario (100k clients,
    0.02% sampled, diurnal availability, cycled link specs) through the
    discrete-event engine: per-round cost scales with participants +
    availability transitions, and the extras keep the proof visible in the
    JSON — events/sec, resident models (1) and materialised clients (tens,
    not 100k).  The availability metric folds four rounds of a 1M-client
    diurnal schedule's arrival/departure stream into an
    :class:`~repro.fl.events.EligibleSet` — the pure event-stream half of the
    engine, at a fleet size where per-round full-fleet rebuilds would
    dominate.
    """
    from repro.data import load_dataset
    from repro.fl import build_fleet_runtime, get_scenario
    from repro.fl.events import EligibleSet
    from repro.fl.scenarios import DiurnalSchedule
    from repro.nn.models import create_model

    # 0.995 split of clients + 1000 leaves >= one training sample per client
    # and a ~500-image validation set for the per-round evaluation.
    full = load_dataset("cifar10", num_samples=clients + 1_000, image_size=8, seed=0)
    train, validation = full.split(0.995, seed=1)

    def model_fn():
        return create_model("alexnet", "tiny", num_classes=10, seed=0)

    scenario = get_scenario("mega-fleet", num_clients=clients)

    def build():
        return build_fleet_runtime(
            scenario,
            model_fn,
            train,
            validation,
            codec=None,
            seed=7,
            batch_size=16,
        )

    harness.measure(
        f"{metric}_setup",
        lambda timer: build(),
        items=clients,
        extra={"clients": clients},
    )

    runtime = build()

    # Each warmup/timed call executes one additional engine round so setup
    # cost stays out of the measurement.
    def run(timer):
        with timer.measure("round"):
            return runtime.run_round()

    record = harness.measure(
        f"{metric}_round",
        run,
        items=clients,
        extra={"clients": clients, "client_fraction": scenario.client_fraction},
    )
    stats = runtime.engine.stats
    events_per_round = stats.total_events / max(1, stats.rounds_run)
    record.extra.update(
        resident_models=runtime.model_pool.created,
        materialized_clients=runtime.clients.materialized_count,
        participants=stats.participants,
        availability_transitions=stats.availability_transitions,
        events_per_round=events_per_round,
    )
    if record.seconds > 0:
        record.extra["events_per_second"] = events_per_round / record.seconds

    rounds = 4
    schedule = DiurnalSchedule(
        period_rounds=4, min_availability=0.2, max_availability=0.9, seed=7
    )
    transition_count = int(
        sum(
            arrivals.size + departures.size
            for arrivals, departures in (
                schedule.transitions(r, availability_clients) for r in range(rounds)
            )
        )
    )

    def run_availability(timer):
        eligible = EligibleSet()
        for r in range(rounds):
            eligible.apply(*schedule.transitions(r, availability_clients))
        return eligible

    harness.measure(
        f"{metric}_availability_1m",
        run_availability,
        items=transition_count,
        extra={"clients": availability_clients, "rounds": rounds},
    )


def _measure_checkpoint(
    harness: BenchHarness,
    metric: str,
    model_name: str,
    variant: str,
    train_round: bool,
) -> None:
    """Snapshot + restore cost of the crash-safe checkpoint subsystem.

    Builds a small federated runtime around the given model, optionally runs
    one real round (so the snapshot carries materialised clients, advanced RNG
    streams and history — the paths a mid-run checkpoint exercises), then
    times ``capture+atomic write`` and ``load+restore`` separately.  Paper-
    scale models skip the training round: their snapshot cost is dominated by
    model-state serialization, which is exactly the "overhead vs model size"
    axis this workload tracks.
    """
    import tempfile
    from pathlib import Path

    from repro.data import load_dataset
    from repro.fl import FederatedRuntime, FLConfig
    from repro.fl.checkpoint import (
        capture_runtime,
        latest_checkpoint,
        load_checkpoint,
        restore_runtime,
        write_checkpoint,
    )
    from repro.nn.models import create_model

    full = load_dataset("cifar10", num_samples=160, image_size=8, seed=0)
    train, validation = full.split(0.75, seed=1)

    def model_fn():
        return create_model(model_name, variant, num_classes=10, seed=0)

    def build():
        return FederatedRuntime(
            model_fn,
            train,
            validation,
            FLConfig(num_clients=4, rounds=1, batch_size=16, local_epochs=1, seed=7),
        )

    runtime = build()
    if train_round:
        runtime.run_round()
    snapshot = capture_runtime(runtime)
    model_nbytes = _state_dict_nbytes(snapshot.model_state)

    with tempfile.TemporaryDirectory(prefix="bench-checkpoint-") as tmp:
        directory = Path(tmp)

        def run_snapshot(timer):
            with timer.measure("capture"):
                checkpoint = capture_runtime(runtime)
            with timer.measure("write"):
                write_checkpoint(checkpoint, directory, keep_last=2)

        harness.measure(
            f"{metric}_snapshot",
            run_snapshot,
            nbytes=model_nbytes,
            extra={"model": f"{model_name}-{variant}"},
        )

        path = latest_checkpoint(directory)
        checkpoint_nbytes = path.stat().st_size
        restore_target = build()

        def run_restore(timer):
            with timer.measure("load"):
                loaded = load_checkpoint(path)
            with timer.measure("restore"):
                restore_runtime(restore_target, loaded)

        harness.measure(
            f"{metric}_restore",
            run_restore,
            nbytes=model_nbytes,
            extra={
                "model": f"{model_name}-{variant}",
                "checkpoint_bytes": checkpoint_nbytes,
            },
        )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@register_workload("huffman", "Huffman encode/decode micro-benchmark vs the scalar reference")
def _workload_huffman(harness: BenchHarness) -> None:
    _measure_huffman(harness, _quantization_like_symbols(200_000), with_reference=True)


@register_workload("bitstream", "BitWriter/BitReader/pack_bit_flags micro-benchmark vs the scalar reference")
def _workload_bitstream(harness: BenchHarness) -> None:
    _measure_bitstream(harness, num_bits=30_000, num_flags=500_000, with_reference=True)


@register_workload("codecs", "Per-codec FedSZ state-dict compression round-trips (SZ2/SZ3/SZx/ZFP)")
def _workload_codecs(harness: BenchHarness) -> None:
    state = _tiny_state_dict()
    for name in ("sz2", "sz3", "szx", "zfp"):
        _measure_codec(harness, name, state, error_bound=1e-2)


@register_workload("fl_round", "One federated round on the scheduler/executor/transport stack")
def _workload_fl_round(harness: BenchHarness) -> None:
    _run_fl_round(harness, "fl_round", samples=240, clients=4)


@register_workload(
    "fl_fleet",
    "One round of a 256-client, 5%-sampled edge fleet on the lazy-client runtime",
)
def _workload_fl_fleet(harness: BenchHarness) -> None:
    _run_fleet_round(
        harness, "fl_fleet", clients=256, client_fraction=0.05, samples=640
    )


@register_workload(
    "fl_fleet_100k",
    "Event-engine rounds of a 100k-client diurnal fleet + 1M-client availability stream",
)
def _workload_fl_fleet_100k(harness: BenchHarness) -> None:
    _run_mega_fleet(harness, "fl_fleet_100k")


@register_workload(
    "checkpoint",
    "RunCheckpoint snapshot + restore overhead vs model size (tiny and paper-scale)",
)
def _workload_checkpoint(harness: BenchHarness) -> None:
    # Tiny model with one real round behind it: covers client/RNG/history
    # capture.  Paper-scale mobilenetv2 without training: isolates the
    # model-serialization cost that grows with model size.
    _measure_checkpoint(harness, "checkpoint_tiny", "alexnet", "tiny", train_round=True)
    _measure_checkpoint(
        harness, "checkpoint_paper", "mobilenetv2", "paper", train_round=False
    )


@register_workload(
    "fl_parallel",
    "Serial vs process-parallel federated round (4 workers, broadcast cache)",
)
def _workload_fl_parallel(harness: BenchHarness) -> None:
    _measure_fl_parallel(harness, "fl_parallel", workers=4)


@register_workload("tiny", "Fast composite for CI smoke runs (codec + entropy + FL round)")
def _workload_tiny(harness: BenchHarness) -> None:
    _measure_huffman(harness, _quantization_like_symbols(30_000), with_reference=False)
    _measure_bitstream(harness, num_bits=5_000, num_flags=50_000, with_reference=False)
    _measure_codec(harness, "sz2", _tiny_state_dict(), error_bound=1e-2)
    _run_fl_round(harness, "fl_round_tiny", samples=120, clients=2)
