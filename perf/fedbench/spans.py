"""Spans recorded from outside the program, for the traced run only.

Timing wrappers are installed around public entry points of each layer
(``repro.compression``, ``repro.core``, ``repro.nn``, ``repro.fl``) and removed
afterwards; nothing in ``src/`` knows about them.  A span is
``[name, start, end, parent]``; spans stay in memory.  A layer's *self* time
is its span's duration minus the part its child spans cover.

A name imported with ``from x import f`` is patched in the module that *uses*
it, because that module holds its own reference.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

Target = Tuple[object, str, str]  # (owner, attribute, span name)


class SpanRecorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        #: Targets that no longer exist in the program (renamed or removed).
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._depth: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        Re-entrant calls under the same name (a subclass method calling the
        wrapped base method, a model nested in a model) run straight through,
        so each name is recorded at its outermost call only.  ``after`` sees
        ``(args, result)`` of every recorded call, for counters.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            # Inherited attributes are covered by the wrapper on the base class.
            if not hasattr(owner, attr):
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        is_static = isinstance(raw, staticmethod)
        function = raw.__func__ if is_static else raw
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if depth[name]:
                return function(*args, **kwargs)
            depth[name] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                depth[name] -= 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = function
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def install(self, targets: List[Target]) -> None:
        """Wrap every target; count raw fallbacks and entropy bytes as they pass."""
        counters = self.counters

        def count_raw_fallback(args, _result) -> None:  # prepare(self, flat, ctx)
            counters["compression.staged.raw_fallbacks"] += bool(args[2].raw)

        def count_entropy_bytes(_args, result) -> None:  # encode(self, indices) -> bytes
            counters["compression.entropy.out_bytes"] += len(result)

        hooks = {
            "compression.predictor.prepare": count_raw_fallback,
            "compression.entropy.encode": count_entropy_bytes,
        }
        for owner, attr, name in targets:
            self.wrap(owner, attr, name, after=hooks.get(name))

    def uninstall(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Reading spans
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Position in the span list; two marks delimit one op."""
        return len(self.spans)

    def summarise(self, lo: int, hi: int):
        """Per-name numbers of ``spans[lo:hi]``, the spans of one op.

        Returns ``(self seconds, whole seconds, calls, root seconds)``: the
        first three keyed by span name, the last the summed duration of the
        op's parentless spans — the part of its wall time the trace accounts
        for.
        """
        window = self.spans[lo:hi]
        own = [span[2] - span[1] for span in window]
        roots = 0.0
        for span in window:
            if span[3] >= lo:
                own[span[3] - lo] -= span[2] - span[1]
            else:
                roots += span[2] - span[1]
        self_seconds: Dict[str, float] = {}
        whole_seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for span, value in zip(window, own):
            name = span[0]
            self_seconds[name] = self_seconds.get(name, 0.0) + value
            whole_seconds[name] = whole_seconds.get(name, 0.0) + span[2] - span[1]
            calls[name] = calls.get(name, 0) + 1
        return self_seconds, whole_seconds, calls, roots


def layer_targets(model_cls=None, scheduler_cls=None) -> List[Target]:
    """The public entry points of each layer, as ``(owner, attr, span name)``.

    ``model_cls`` is the workload's top-level model class (its ``forward`` /
    ``backward`` are the ``nn`` layer's boundary); ``scheduler_cls`` the
    runtime's scheduler class.
    """
    from repro.compression import stages
    from repro.compression.lossless import BloscLZCompressor
    from repro.compression.sz2 import SZ2Predictor
    from repro.compression.sz3 import SZ3Predictor
    from repro.compression.szx import SZxPredictor
    from repro.compression.zfp import ZFPPredictor
    from repro.core import fedsz, pipeline
    from repro.fl import broadcast, client, events, executor, runtime, server
    from repro.nn import optim

    targets: List[Target] = [
        (fedsz, "compress_state_dict", "core.pipeline.compress"),
        (fedsz, "decompress_state_dict", "core.pipeline.decompress"),
        (pipeline, "partition_state_dict", "core.partition"),
        (pipeline, "build_fedsz_payload", "core.serializer.build"),
        (pipeline, "serialize_named_arrays", "core.serializer.build"),
        (pipeline, "parse_fedsz_payload", "core.serializer.parse"),
        (pipeline, "deserialize_named_arrays", "core.serializer.parse"),
        (stages.StagedCompressor, "compress", "compression.staged.compress"),
        (stages.StagedCompressor, "decompress", "compression.staged.decompress"),
        (stages.PredictorStage, "prepare", "compression.predictor.prepare"),
        (stages.Quantizer, "encode", "compression.quantizer.encode"),
        (stages.Quantizer, "decode", "compression.quantizer.decode"),
        (stages.EntropyStage, "encode", "compression.entropy.encode"),
        (stages.EntropyStage, "decode", "compression.entropy.decode"),
        (BloscLZCompressor, "compress", "compression.lossless.compress"),
        (BloscLZCompressor, "decompress", "compression.lossless.decompress"),
        (optim.SGD, "step", "nn.optim.step"),
        (client.FLClient, "train", "fl.client.train"),
        (executor, "transmit_update", "fl.transport.transmit"),
        (server.FLServer, "aggregate", "fl.server.aggregate"),
        (server.FLServer, "evaluate", "fl.server.evaluate"),
        (runtime.FederatedRuntime, "start_round", "fl.runtime.start_round"),
        (runtime.FederatedRuntime, "execute_clients", "fl.executor.dispatch"),
        (runtime.FederatedRuntime, "finish_round", "fl.runtime.finish_round"),
        (broadcast.BroadcastCache, "round_state", "fl.broadcast.round_state"),
        (events.FleetEngine, "run_round", "fl.events.engine"),
    ]
    for predictor in (SZ2Predictor, SZ3Predictor, SZxPredictor, ZFPPredictor):
        targets += [
            (predictor, "prepare", "compression.predictor.prepare"),
            (predictor, "encode", "compression.predictor.encode"),
            (predictor, "decode", "compression.predictor.decode"),
        ]
    if model_cls is not None:
        targets += [
            (model_cls, "forward", "nn.forward"),
            (model_cls, "backward", "nn.backward"),
        ]
    if scheduler_cls is not None:
        targets += [
            (scheduler_cls, "run_round", "fl.scheduler"),
            (scheduler_cls, "consume_events", "fl.scheduler"),
        ]
    return targets
