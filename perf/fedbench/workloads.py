"""The five workloads.  Each stresses a different mix of layers.

All are closed loops with one client, one process, one thread.  ``--seed``
feeds ``create_model(seed=)``, ``build_federated_setup(seed=)`` and
``build_fleet_runtime(seed=)``; the program only ever sees generated inputs.
Every workload reports every end-to-end metric, so that a later change can be
checked on every pairing of metric and workload:

* the two ``codec_*`` workloads time ``FedSZCompressor.compress`` →
  ``.decompress`` of a paper-scale state dict.  Their ``round_s`` is that round
  trip (the time FedSZ adds to one client's round) and their
  ``uplink_MB_per_round`` is the payload one client would upload;
* the three FL workloads time ``runtime.run_round()``.  Their codec metrics come
  from the same checked compress → decompress op, run on the global model as it
  stands after a fixed round, so they are exact for a seed.

``psnr_dB`` is the quality the lossy codec leaves: the mean over lossy tensors
of ``20·log10(range / rmse)``.  (The accuracy a 256-client fleet reaches in the
seconds a benchmark run lasts sits at chance and moves more between seeds than
any bound the gate allows, and freshly initialised paper-scale models give
constant logits in eval mode, so model-level quality cannot be gated here;
the last fixed round's accuracy is the layer metric ``fl.server.val_accuracy``.)
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from fedbench.spans import SpanRecorder, layer_targets
from fedbench.timing import OpSample, ReferenceKernel, p25, quantile, run_ops, timed_setup

from repro.compression.base import resolve_error_bound
from repro.compression.registry import get_lossy_compressor
from repro.core import FedSZCompressor
from repro.data import load_dataset
from repro.experiments.workloads import build_federated_setup
from repro.fl import build_fleet_runtime, capture_runtime, get_scenario
from repro.fl.checkpoint import load_checkpoint, restore_runtime, write_checkpoint
from repro.fl.config import participant_count
from repro.fl.events import EligibleSet
from repro.fl.scenarios import DiurnalSchedule
from repro.nn.models import create_model

CODEC_MATRIX = [
    (codec, bound) for codec in ("sz2", "sz3", "szx", "zfp") for bound in (1e-2, 1e-3)
]


@dataclass
class Run:
    """What one invocation was asked to do."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    #: Scratch directory inside the checkout (checkpoint files).
    work_dir: Path
    kernel: ReferenceKernel = field(default_factory=ReferenceKernel)


@dataclass
class Outcome:
    """What one invocation measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Digests and the first failure message: printed, not gated.
    notes: Dict[str, str] = field(default_factory=dict)
    #: Every reference-kernel reading of the run, for ``host.calib_*``.
    kernel_seconds: List[float] = field(default_factory=list)

    def count(self, samples: Sequence[OpSample]) -> None:
        """Add ops to ``attempted``; those whose check failed to ``failed``."""
        self.attempted += len(samples)
        for sample in samples:
            if "kernel_s" in sample.info:
                self.kernel_seconds.append(sample.info["kernel_s"])
            if not sample.ok:
                self.failed += 1
                self.notes.setdefault("first_failure", str(sample.info.get("error")))

    def check(self, ok: bool, what: str) -> None:
        """One more attempted op that is a pure check (digest equality)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.setdefault("first_failure", what)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def state_nbytes(state) -> int:
    return int(sum(np.asarray(value).nbytes for value in state.values()))


# ----------------------------------------------------------------------
# The codec op: compress -> decompress of one state dict, checked
# ----------------------------------------------------------------------
class CodecOp:
    """One ``FedSZCompressor`` round trip of ``state`` per call.

    The check, run after the timed parts, fails the op unless: names, shapes
    and dtypes round-trip; the payload is byte-identical to the first op's;
    every lossless tensor comes back exactly; and every lossy tensor of a
    ``strictly_bounded`` codec satisfies ``max|x - x̂| <= ε·range`` (for ZFP
    the reconstruction must be finite and the utilisation is recorded).  The
    same pass yields ``psnr_db``, the mean PSNR over the lossy tensors.
    """

    def __init__(self, state, compressor: FedSZCompressor) -> None:
        self.state = state
        self.compressor = compressor
        self.nbytes = state_nbytes(state)
        self.strict = bool(
            get_lossy_compressor(compressor.config.lossy_compressor).strictly_bounded
        )
        self.max_utilization = 0.0
        self.psnr_db = 0.0
        self.payload: Optional[bytes] = None

    def __call__(self, index: int) -> OpSample:
        parts = {"compress": math.nan, "decompress": math.nan}
        try:
            start = time.perf_counter()
            payload = self.compressor.compress(self.state)
            middle = time.perf_counter()
            restored = self.compressor.decompress(payload)
            end = time.perf_counter()
            parts = {"compress": middle - start, "decompress": end - middle}
            error = self._check(payload, restored)
        except Exception as failure:  # a failed op is counted; the run goes on
            error = f"{type(failure).__name__}: {failure}"
        parts["roundtrip"] = parts["compress"] + parts["decompress"]
        return OpSample(parts, 1.0, error is None, {"error": error})

    def _check(self, payload: bytes, restored) -> Optional[str]:
        if self.payload is None:
            self.payload = payload
        elif payload != self.payload:
            return "payload bytes differ from the first op's"
        if sorted(restored) != sorted(self.state):
            return "tensor names do not round-trip"
        lossy = set(self.compressor.last_report.per_tensor_ratio)
        config = self.compressor.config
        psnr: List[float] = []
        for name, original in self.state.items():
            original = np.asarray(original)
            got = np.asarray(restored[name])
            if got.shape != original.shape or got.dtype != original.dtype:
                return f"{name}: shape or dtype does not round-trip"
            if name not in lossy:
                if not np.array_equal(original, got):
                    return f"{name}: lossless tensor changed"
                continue
            if not np.all(np.isfinite(got)):
                return f"{name}: reconstruction is not finite"
            difference = original.astype(np.float64) - got.astype(np.float64)
            error = float(np.max(np.abs(difference)))
            bound = resolve_error_bound(original, config.error_bound, config.error_bound_mode)
            self.max_utilization = max(
                self.max_utilization,
                error / bound if bound > 0 else (0.0 if error == 0 else math.inf),
            )
            # The codec bounds the float64 reconstruction; storing it as
            # float32 may add half an ulp of the tensor's largest magnitude.
            slack = float(np.max(np.abs(original))) * 2.0**-23
            if self.strict and error > bound + slack:
                return f"{name}: error {error:.3e} exceeds bound {bound:.3e}"
            rmse = math.sqrt(float(np.mean(difference * difference)))
            value_range = float(original.max() - original.min())
            if rmse > 0 and value_range > 0:
                psnr.append(20.0 * math.log10(value_range / rmse))
        self.psnr_db = float(np.mean(psnr)) if psnr else 0.0
        return None


def codec_numbers(samples: Sequence[OpSample], op: CodecOp) -> Dict[str, float]:
    """p25 normalised seconds and exact byte counts of one op series."""
    good = [sample for sample in samples if sample.ok] or list(samples)
    return {
        "compress_s": p25(good, "compress"),
        "decompress_s": p25(good, "decompress"),
        "roundtrip_s": p25(good, "roundtrip"),
        "nbytes": float(op.nbytes),
        "payload_nbytes": float(len(op.payload) if op.payload else op.nbytes),
    }


def codec_end_to_end(series: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Codec end-to-end metrics over one or more series: Σbytes / Σp25."""
    nbytes = sum(numbers["nbytes"] for numbers in series)
    payload = sum(numbers["payload_nbytes"] for numbers in series)
    return {
        "compress_MBps": nbytes / 1e6 / sum(numbers["compress_s"] for numbers in series),
        "decompress_MBps": nbytes / 1e6 / sum(numbers["decompress_s"] for numbers in series),
        "compression_ratio": nbytes / payload,
        "round_s": sum(numbers["roundtrip_s"] for numbers in series) / len(series),
        "uplink_MB_per_round": payload / 1e6 / len(series),
    }


# ----------------------------------------------------------------------
# Per-layer numbers from spans
# ----------------------------------------------------------------------
#: span name -> layer metric fed by the span's *self* seconds.
SELF_METRICS = {
    "compression.predictor.prepare": "compression.predictor.encode_s",
    "compression.predictor.encode": "compression.predictor.encode_s",
    "compression.predictor.decode": "compression.predictor.decode_s",
    "compression.quantizer.encode": "compression.quantizer.encode_s",
    "compression.quantizer.decode": "compression.quantizer.decode_s",
    "compression.entropy.encode": "compression.entropy.encode_s",
    "compression.entropy.decode": "compression.entropy.decode_s",
    "compression.lossless.compress": "compression.lossless.compress_s",
    "compression.lossless.decompress": "compression.lossless.decompress_s",
    "compression.staged.compress": "compression.staged.compress_self_s",
    "compression.staged.decompress": "compression.staged.decompress_self_s",
    "core.partition": "core.partition_s",
    "core.serializer.build": "core.serializer.build_s",
    "core.serializer.parse": "core.serializer.parse_s",
    "core.pipeline.compress": "core.pipeline.self_s",
    "core.pipeline.decompress": "core.pipeline.self_s",
    "nn.forward": "nn.forward_s",
    "nn.backward": "nn.backward_s",
    "nn.optim.step": "nn.optim.step_s",
    "fl.runtime.start_round": "fl.runtime.start_round_s",
    "fl.broadcast.round_state": "fl.broadcast.round_state_s",
    "fl.executor.dispatch": "fl.executor.dispatch_s",
    "fl.client.train": "fl.client.train_self_s",
    "fl.transport.transmit": "fl.transport.transmit_self_s",
    "fl.server.aggregate": "fl.server.aggregate_s",
    "fl.server.evaluate": "fl.server.evaluate_s",
    "fl.runtime.finish_round": "fl.runtime.finish_round_self_s",
    "fl.scheduler": "fl.scheduler.self_s",
    "fl.events.engine": "fl.events.engine_self_s",
}
#: span name -> layer metric fed by the span's *whole* duration: what an op
#: pays for local training and for the FedSZ pipeline, children included.
TOTAL_METRICS = {
    "fl.client.train": "fl.client.train_s",
    "core.pipeline.compress": "core.pipeline.compress_s",
    "core.pipeline.decompress": "core.pipeline.decompress_s",
}
#: span name -> layer metric fed by the span's call count per op.
CALL_METRICS = {
    "compression.staged.compress": "compression.staged.calls",
    "nn.forward": "nn.forward_calls",
}


def traced_ops(
    run: Run, op: Callable[[int], OpSample], seconds: float, min_ops: int, targets,
    whole: str, units: int = 1,
) -> Tuple[List[OpSample], Dict[str, float]]:
    """Run ``op`` under spans; return the samples and the per-layer numbers.

    A ``*_s`` layer value is the p25 over ops of the layer's summed seconds in
    the op, speed-normalised like the end-to-end numbers; counts are per op.
    Both are divided by ``units``, the rounds one op holds.  ``whole`` names
    the op's whole timed part, against which ``trace.coverage`` is taken.
    """
    recorder = SpanRecorder()
    windows: List[Tuple[int, int]] = []

    def marked(index: int) -> OpSample:
        lo = recorder.mark()
        sample = op(index)
        windows.append((lo, recorder.mark()))
        return sample

    recorder.install(targets)
    try:
        samples = run_ops(run.kernel, marked, seconds, min_ops)
    finally:
        recorder.uninstall()

    rows: List[Counter] = []
    covered = wall = 0.0
    for sample, (lo, hi) in zip(samples, windows):
        own, total, calls, roots = recorder.summarise(lo, hi)
        row: Counter = Counter()
        for name, value in own.items():
            row[SELF_METRICS[name]] += value * sample.factor / units
        for name, metric in TOTAL_METRICS.items():
            row[metric] = total.get(name, 0.0) * sample.factor / units
        for name, metric in CALL_METRICS.items():
            row[metric] = calls.get(name, 0) / units
        rows.append(row)
        covered += roots
        wall += sample.parts[whole]

    names = set(SELF_METRICS.values()) | set(TOTAL_METRICS.values())
    layers = {name: quantile([row[name] for row in rows], 0.25) for name in names}
    for name in CALL_METRICS.values():
        layers[name] = quantile([row[name] for row in rows], 0.5)
    for name, value in recorder.counters.items():
        layers[name] = value / len(samples) / units
    layers["trace.coverage"] = covered / wall if wall > 0 else 0.0
    layers["trace.spans_missing"] = float(len(recorder.missing))
    return samples, layers


def report_layers(report) -> Dict[str, float]:
    """How one ``FedSZReport`` split the state dict between the partitions."""
    return {
        "core.pipeline.lossy_tensors": report.lossy_tensor_count,
        "core.pipeline.lossless_tensors": report.lossless_tensor_count,
        "core.pipeline.lossy_bytes": report.lossy_original_nbytes,
        "core.pipeline.lossless_bytes": report.lossless_original_nbytes,
    }


def host_layers(outcome: Outcome) -> Dict[str, float]:
    """What the reference kernel saw of the machine during this run."""
    readings = outcome.kernel_seconds or [0.0]
    median = quantile(readings, 0.5)
    spread = (quantile(readings, 0.75) - quantile(readings, 0.25)) / median if median else 0.0
    return {
        "host.calib_s": median,
        "host.calib_spread": spread,
        "host.blas_threads": float(os.environ.get("OPENBLAS_NUM_THREADS", 0) or 0),
        "host.nproc": float(os.cpu_count() or 0),
    }


# ----------------------------------------------------------------------
# codec_bulk and codec_matrix
# ----------------------------------------------------------------------
def codec_workload(run: Run, model: Tuple[str, str], combos) -> Outcome:
    """Time every ``(codec, bound)`` combo on one model's state dict."""
    outcome = Outcome()
    min_ops = 1 if run.smoke else 2 if run.trace else 3
    # One set-up of the matrix holds eight warm-up ops: two repeats are enough.
    setup_reps = 1 if run.smoke else 3 if len(combos) == 1 else 2

    def build():
        state = create_model(model[0], model[1], seed=run.seed).state_dict()
        ops = [
            CodecOp(state, FedSZCompressor(error_bound=bound, lossy_compressor=codec))
            for codec, bound in combos
        ]
        return ops, [op(-1) for op in ops]  # one warm-up op per combo

    if run.trace:
        setup_s = 0.0
        ops, warm = build()
    else:
        (ops, warm), setup_s = timed_setup(run.kernel, build, setup_reps)
    outcome.count(warm)

    share = run.seconds / len(ops) / (2 if run.trace else 1)
    targets = layer_targets() if run.trace else []
    plain: List[Dict[str, float]] = []
    traced: List[Dict[str, float]] = []
    layers: Counter = Counter()
    for op in ops:
        samples = run_ops(run.kernel, op, share, min_ops)
        outcome.count(samples)
        plain.append(codec_numbers(samples, op))
        if run.trace:
            samples, op_layers = traced_ops(run, op, share, min_ops, targets, whole="roundtrip")
            outcome.count(samples)
            traced.append(codec_numbers(samples, op))
            # Counter.update adds: layer values are per pass over all combos.
            layers.update(op_layers)
            layers.update(report_layers(op.compressor.last_report))
    outcome.notes["payload_sha256"] = hashlib.sha256(
        b"".join(op.payload or b"" for op in ops)
    ).hexdigest()

    if run.trace:
        for key in ("trace.coverage", "trace.spans_missing"):
            layers[key] /= len(ops)
        layers["trace.overhead_share"] = (
            sum(numbers["roundtrip_s"] for numbers in traced)
            / sum(numbers["roundtrip_s"] for numbers in plain)
            - 1.0
        )
        layers["compression.max_bound_utilization"] = max(
            (op.max_utilization for op in ops if op.strict), default=0.0
        )
        if len(ops) > 1:  # per codec, over its bounds
            for codec in dict.fromkeys(codec for codec, _ in combos):
                mine = [i for i, (name, _) in enumerate(combos) if name == codec]
                numbers = codec_end_to_end([plain[i] for i in mine])
                layers[f"compression.{codec}.compress_MBps"] = numbers["compress_MBps"]
                layers[f"compression.{codec}.decompress_MBps"] = numbers["decompress_MBps"]
                layers[f"compression.{codec}.ratio"] = numbers["compression_ratio"]
                layers[f"compression.{codec}.max_bound_utilization"] = max(
                    ops[i].max_utilization for i in mine
                )
        outcome.metrics = dict(layers)
        return outcome

    outcome.metrics = {
        "setup_s": setup_s,
        **codec_end_to_end(plain),
        "psnr_dB": float(np.mean([op.psnr_db for op in ops])),
        "peak_rss_MB": peak_rss_mb(),
    }
    return outcome


def codec_bulk(run: Run) -> Outcome:
    model = ("alexnet", "tiny") if run.smoke else ("resnet18", "paper")
    return codec_workload(run, model, [("sz2", 1e-2)])


def codec_matrix(run: Run) -> Outcome:
    model = ("mobilenetv2", "tiny") if run.smoke else ("mobilenetv2", "paper")
    return codec_workload(run, model, CODEC_MATRIX)


# ----------------------------------------------------------------------
# fl_train_heavy, fl_codec_heavy and fleet_100k
# ----------------------------------------------------------------------
@dataclass
class Fleet:
    """A built runtime plus what the checks and the trace need."""

    runtime: object
    model_fn: Callable
    #: Inclusive range the number of participants of a round must fall in.
    participants: Tuple[int, int]
    #: Rounds per timed op.  One where rounds are alike; a whole availability
    #: period where they are not, so that ops are alike and p25 means something.
    rounds_per_op: int = 1


class RoundOp:
    """``fleet.rounds_per_op`` calls of ``runtime.run_round()``, then checked.

    Fails the op unless every field of each round's row is finite and the
    number of participants is as configured.  Keeps a copy of the global
    model as it stands after op ``snapshot_at``.
    """

    def __init__(self, fleet: Fleet, snapshot_at: int) -> None:
        self.fleet = fleet
        self.snapshot_at = snapshot_at
        self.snapshot = None

    def __call__(self, index: int) -> OpSample:
        records: list = []
        seconds = math.nan
        try:
            start = time.perf_counter()
            for _ in range(self.fleet.rounds_per_op):
                records.append(self.fleet.runtime.run_round())
            seconds = time.perf_counter() - start
            error = next(filter(None, map(self._check, records)), None)
            if index == self.snapshot_at:
                self.snapshot = self.fleet.runtime.server.global_state()
        except Exception as failure:  # a failed op is counted; the run goes on
            error = f"{type(failure).__name__}: {failure}"
        parts = {"op": seconds, "round": seconds / self.fleet.rounds_per_op}
        return OpSample(parts, 1.0, error is None, {"error": error, "records": records})

    def _check(self, record) -> Optional[str]:
        for name, value in record.as_row().items():
            if not math.isfinite(value):
                return f"round {record.round_index}: {name} is {value}"
        low, high = self.fleet.participants
        if not low <= record.participating_clients <= high:
            return (
                f"round {record.round_index}: {record.participating_clients} "
                f"participants, expected {low}..{high}"
            )
        return None


def history_digest(runtime, rounds: int) -> str:
    """SHA-256 of the first ``rounds`` of ``history.deterministic_rows()``."""
    rows = runtime.history.deterministic_rows()[:rounds]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


def fl_workload(
    run: Run, build_fleet: Callable[[], Fleet], warmup: int, min_ops: int, setup_reps: int,
    extra_layers: Optional[Callable[[Fleet, Fleet], Dict[str, float]]] = None,
) -> Outcome:
    """Time rounds of one fleet; then the codec op on its global model.

    Exact metrics use the first ``min_ops`` timed ops only, so they do not
    depend on how many ops fit in ``--seconds``.  ``extra_layers(untraced
    fleet, traced fleet)`` adds a workload's own layer metrics to a traced run.
    """
    outcome = Outcome()

    def build():
        fleet = build_fleet()
        op = RoundOp(fleet, snapshot_at=min_ops - 1)
        return fleet, op, [op(index - warmup) for index in range(warmup)]

    if run.trace:
        setup_s = 0.0
        fleet, op, warm = build()
    else:
        (fleet, op, warm), setup_s = timed_setup(run.kernel, build, setup_reps)
    outcome.count(warm)

    rounds_seconds = run.seconds * (0.4 if run.trace else 0.8)
    samples = run_ops(run.kernel, op, rounds_seconds, min_ops)
    outcome.count(samples)
    good = [sample for sample in samples if sample.ok] or samples
    fixed = [record for sample in samples[:min_ops] for record in sample.info["records"]]
    fixed_rounds = (warmup + min_ops) * fleet.rounds_per_op
    digest = history_digest(fleet.runtime, fixed_rounds)
    outcome.notes["history_sha256"] = digest
    uplink_bytes = float(np.mean([record.uplink_bytes for record in fixed])) if fixed else 0.0

    if run.trace:
        twin, twin_op, warm = build()  # same seed, fresh runtime, traced this time
        outcome.count(warm)
        runtime = twin.runtime
        targets = layer_targets(type(twin.model_fn()), type(runtime.scheduler))
        traced, layers = traced_ops(
            run, twin_op, rounds_seconds, min_ops, targets, whole="op", units=twin.rounds_per_op
        )
        outcome.count(traced)
        outcome.check(
            history_digest(runtime, fixed_rounds) == digest,
            "traced and untraced runs of one seed disagree on deterministic_rows()",
        )
        round_s = p25([s for s in traced if s.ok] or traced, "round")
        rounds_run = len(runtime.history)
        layers.update({
            "trace.overhead_share": round_s / p25(good, "round") - 1.0,
            "fl.transport.codec_share": (
                layers["core.pipeline.compress_s"] + layers["core.pipeline.decompress_s"]
            ) / round_s,
            "fl.transport.uplink_bytes": uplink_bytes,
            "fl.transport.dropped_updates": float(sum(r.dropped_clients for r in fixed)),
            "fl.broadcast.cache_hits": runtime.broadcast_cache.hits / rounds_run,
            "fl.broadcast.cache_misses": runtime.broadcast_cache.misses / rounds_run,
            "fl.state.materialized_clients": float(runtime.clients.materialized_count),
            "fl.state.resident_models": float(runtime.model_pool.created),
            "fl.runtime.round_p50_s": quantile([s.seconds("round") for s in good], 0.5),
            "fl.runtime.round_p90_s": quantile([s.seconds("round") for s in good], 0.9),
            "fl.server.val_accuracy": fixed[-1].global_accuracy if fixed else 0.0,
            "compression.max_bound_utilization": max(
                (record.max_bound_utilization for record in fixed), default=0.0
            ),
        })
        if runtime.codec is not None:
            layers.update(report_layers(runtime.codec.last_report))
        if runtime.engine is not None:
            stats = runtime.engine.stats
            layers["fl.events.events_per_round"] = stats.total_events / max(stats.rounds_run, 1)
        if extra_layers is not None:
            layers.update(extra_layers(fleet, twin))
        outcome.metrics = layers
        return outcome

    probe = CodecOp(op.snapshot, FedSZCompressor(error_bound=1e-2, lossy_compressor="sz2"))
    probe_samples = run_ops(run.kernel, probe, run.seconds * 0.2, 1 if run.smoke else 5, warmup=1)
    outcome.count(probe_samples)
    outcome.metrics = {
        "setup_s": setup_s,
        **codec_end_to_end([codec_numbers(probe_samples, probe)]),
        "round_s": p25(good, "round"),
        "uplink_MB_per_round": uplink_bytes / 1e6,
        "psnr_dB": probe.psnr_db,
        "peak_rss_MB": peak_rss_mb(),
    }
    return outcome


def edge_fleet(run: Run, model_name: str) -> Fleet:
    """``uniform-edge``: 256 clients, 5% sampled, serial, sync, FedSZ sz2 1e-2."""
    clients, samples = (32, 160) if run.smoke else (256, 640)
    setup = build_federated_setup(
        model_name, num_clients=clients, samples=samples, local_epochs=1, seed=run.seed
    )
    scenario = get_scenario("uniform-edge", num_clients=clients)
    runtime = build_fleet_runtime(
        scenario,
        setup.model_fn,
        setup.train_dataset,
        setup.validation_dataset,
        codec=FedSZCompressor(error_bound=1e-2, lossy_compressor="sz2"),
        seed=run.seed,
        local_epochs=1,
    )
    expected = participant_count(scenario.client_fraction, clients)
    return Fleet(runtime, setup.model_fn, (expected, expected))


def edge_workload(run: Run, model_name: str, extra_layers=None) -> Outcome:
    return fl_workload(
        run, lambda: edge_fleet(run, model_name), warmup=1 if run.smoke else 2,
        min_ops=2 if run.smoke else 10, setup_reps=1 if run.smoke else 3,
        extra_layers=extra_layers,
    )


def fl_train_heavy(run: Run) -> Outcome:
    return edge_workload(run, "mobilenetv2")


def fl_codec_heavy(run: Run) -> Outcome:
    def checkpoint_layers(fleet: Fleet, twin: Fleet) -> Dict[str, float]:
        """Snapshot ``twin`` after its last round; restore it into ``fleet``."""
        directory = run.work_dir / "checkpoint"
        reps = 1 if run.smoke else 3
        path, snapshot_s = timed_setup(
            run.kernel,
            lambda: write_checkpoint(capture_runtime(twin.runtime), directory, keep_last=1),
            reps,
        )
        _, restore_s = timed_setup(
            run.kernel, lambda: restore_runtime(fleet.runtime, load_checkpoint(path)), reps
        )
        return {
            "fl.checkpoint.snapshot_s": snapshot_s,
            "fl.checkpoint.restore_s": restore_s,
            "fl.checkpoint.bytes": float(Path(path).stat().st_size),
        }

    return edge_workload(run, "alexnet", checkpoint_layers)


def fleet_100k(run: Run) -> Outcome:
    clients = 2_000 if run.smoke else 100_000
    scenario = get_scenario("mega-fleet", num_clients=clients)

    def model_fn():
        return create_model("alexnet", "tiny", num_classes=10, seed=run.seed)

    def build_fleet() -> Fleet:
        # One training sample per client; the 64 left over are validation.
        full = load_dataset("cifar10", num_samples=clients + 64, image_size=8, seed=run.seed)
        train, validation = full.split(clients / (clients + 64), seed=run.seed + 1)
        runtime = build_fleet_runtime(
            scenario, model_fn, train, validation, codec=None, seed=run.seed,
            batch_size=16, engine="events",
        )
        period = int(scenario.schedule_kwargs["period_rounds"])
        return Fleet(
            runtime, model_fn, (1, participant_count(scenario.client_fraction, clients)),
            rounds_per_op=period,
        )

    def eligible_layers(fleet: Fleet, twin: Fleet) -> Dict[str, float]:
        """Fold four rounds of a 1M-client diurnal schedule into an EligibleSet."""
        fleet_size = 20_000 if run.smoke else 1_000_000
        schedule = DiurnalSchedule(
            period_rounds=4, min_availability=0.2, max_availability=0.9, seed=run.seed
        )

        transitions = [schedule.transitions(index, fleet_size) for index in range(4)]

        def fold():
            eligible = EligibleSet()
            for arrivals, departures in transitions:
                eligible.apply(arrivals, departures)
            return eligible

        _, seconds = timed_setup(run.kernel, fold, 1 if run.smoke else 3)
        return {"fl.events.eligible_apply_s": seconds}

    return fl_workload(
        run, build_fleet, warmup=1, min_ops=1 if run.smoke else 8,
        setup_reps=1 if run.smoke else 3, extra_layers=eligible_layers,
    )


WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "codec_bulk": codec_bulk,
    "codec_matrix": codec_matrix,
    "fl_train_heavy": fl_train_heavy,
    "fl_codec_heavy": fl_codec_heavy,
    "fleet_100k": fleet_100k,
}


def run_workload(name: str, run: Run) -> Outcome:
    """Run one workload; traced runs also report what the host looked like."""
    outcome = WORKLOADS[name](run)
    if run.trace:
        outcome.metrics.update(host_layers(outcome))
    return outcome
