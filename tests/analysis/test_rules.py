"""Per-rule positive/negative fixture tests.

Every shipped rule gets at least one snippet it must fire on and one
structurally-adjacent snippet it must stay silent on, so a rule regression
(either direction) is caught by name.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import get_rule, lint_source

RUNTIME_PATH = "src/repro/fake/module.py"


def findings(rule_id: str, source: str, path: str = RUNTIME_PATH):
    return lint_source(path, textwrap.dedent(source), [get_rule(rule_id)])


# ----------------------------------------------------------------------
# DET001 — global-state RNG
# ----------------------------------------------------------------------
class TestDet001:
    def test_fires_on_numpy_module_rng(self):
        hits = findings("DET001", """
            import numpy as np
            def sample():
                return np.random.normal(size=4)
        """)
        assert len(hits) == 1
        assert hits[0].rule == "DET001"
        assert "numpy.random.normal" in hits[0].message

    def test_fires_on_numpy_seed_through_from_import(self):
        hits = findings("DET001", """
            from numpy import random
            random.seed(7)
        """)
        assert [f.rule for f in hits] == ["DET001"]

    def test_fires_on_stdlib_random_call_and_import(self):
        hits = findings("DET001", """
            import random
            from random import shuffle
            def pick(items):
                return random.choice(items)
        """)
        assert len(hits) == 2  # the from-import and the call

    def test_silent_on_explicit_generator(self):
        assert not findings("DET001", """
            import numpy as np
            def sample(seed):
                rng = np.random.default_rng(seed)
                gen = np.random.Generator(np.random.PCG64(seed))
                return rng.normal(size=4) + gen.random()
        """)

    def test_silent_on_explicit_stdlib_instance(self):
        assert not findings("DET001", """
            from random import Random
            def pick(items, seed):
                return Random(seed).choice(items)
        """)

    def test_silent_on_unrelated_attribute_chains(self):
        assert not findings("DET001", """
            class Holder:
                def draw(self):
                    return self.random.choice([1, 2])
        """)

    @pytest.mark.parametrize("imports,call,resolved", [
        ("import numpy as np", "np.random.normal()", "numpy.random.normal"),
        ("import numpy", "numpy.random.permutation(4)", "numpy.random.permutation"),
        ("import numpy.random as npr", "npr.shuffle(items)", "numpy.random.shuffle"),
        ("from numpy.random import randint", "randint(3)", "numpy.random.randint"),
        ("import random as rnd", "rnd.gauss(0.0, 1.0)", "random.gauss"),
    ], ids=["np-alias", "numpy", "submodule-alias", "from-numpy-random", "stdlib-alias"])
    def test_fires_through_every_import_style(self, imports, call, resolved):
        hits = findings("DET001", f"{imports}\ndef draw(items):\n    return {call}\n")
        assert [f.rule for f in hits] == ["DET001"]
        assert resolved in hits[0].message

    @pytest.mark.parametrize("constructor", [
        "default_rng(seed)",
        "Generator(np.random.PCG64(seed))",
        "SeedSequence(seed)",
        "RandomState(seed)",
        "MT19937(seed)",
    ])
    def test_silent_on_explicit_stream_constructors(self, constructor):
        assert not findings("DET001", f"""
            import numpy as np
            def stream(seed):
                return np.random.{constructor}
        """)

    def test_from_import_of_explicit_classes_is_silent(self):
        assert not findings("DET001", """
            from random import Random, SystemRandom
            def streams(seed):
                return Random(seed), SystemRandom()
        """)

    def test_silent_on_relative_random_module(self):
        # ``from .random import choice`` is a package-local module, not the
        # stdlib's shared stream.
        assert not findings("DET001", """
            from .random import choice
            def pick(items):
                return choice(items)
        """)

    def test_silent_on_parameter_named_random(self):
        assert not findings("DET001", """
            def pick(random, items):
                return random.choice(items)
        """)


# ----------------------------------------------------------------------
# DET002 — wall-clock / timing taint
# ----------------------------------------------------------------------
class TestDet002:
    def test_fires_on_time_time(self):
        hits = findings("DET002", """
            import time
            def stamp():
                return time.time()
        """)
        assert len(hits) == 1
        assert "time.time" in hits[0].message

    def test_fires_on_datetime_now(self):
        hits = findings("DET002", """
            from datetime import datetime
            def stamp():
                return datetime.now()
        """)
        assert len(hits) == 1

    def test_exempts_utils_timing(self):
        assert not findings("DET002", """
            import time
            def now():
                return time.time()
        """, path="src/repro/utils/timing.py")

    def test_fires_on_tainted_deterministic_kwarg(self):
        hits = findings("DET002", """
            import time
            def finish(history):
                start = time.perf_counter()
                elapsed = time.perf_counter() - start
                history.add_round(uplink_seconds=elapsed)
        """)
        assert len(hits) == 1
        assert "uplink_seconds" in hits[0].message

    def test_fires_on_tainted_deterministic_attribute(self):
        hits = findings("DET002", """
            import time
            def finish(record):
                start = time.perf_counter()
                record.transfer_seconds = time.perf_counter() - start
        """)
        assert len(hits) == 1
        assert "transfer_seconds" in hits[0].message

    def test_silent_on_measurement_fields(self):
        assert not findings("DET002", """
            import time
            def finish(record):
                start = time.perf_counter()
                record.train_seconds = time.perf_counter() - start
                record.log(compress_seconds=time.perf_counter() - start)
        """)

    def test_silent_on_modelled_values(self):
        assert not findings("DET002", """
            def finish(history, nbytes, bandwidth):
                history.add_round(uplink_seconds=nbytes / bandwidth)
        """)

    @pytest.mark.parametrize("imports,call,resolved", [
        ("import time", "time.time()", "time.time"),
        ("import time", "time.time_ns()", "time.time_ns"),
        ("import datetime", "datetime.datetime.now()", "datetime.datetime.now"),
        ("from datetime import datetime", "datetime.utcnow()", "datetime.datetime.utcnow"),
        ("from datetime import datetime", "datetime.today()", "datetime.datetime.today"),
        ("from datetime import date", "date.today()", "datetime.date.today"),
    ], ids=["time", "time_ns", "datetime-now", "utcnow", "datetime-today", "date-today"])
    def test_fires_on_every_banned_source(self, imports, call, resolved):
        hits = findings("DET002", f"{imports}\ndef stamp():\n    return {call}\n")
        assert [f.rule for f in hits] == ["DET002"]
        assert f"{resolved}()" in hits[0].message

    _MEASUREMENT_CLOCKS = [
        "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
        "process_time", "process_time_ns",
    ]

    @pytest.mark.parametrize("clock", _MEASUREMENT_CLOCKS)
    def test_measurement_clocks_are_legal_in_measured_fields(self, clock):
        assert not findings("DET002", f"""
            import time
            def train(record):
                start = time.{clock}()
                record.train_seconds = time.{clock}() - start
        """)

    @pytest.mark.parametrize("clock", _MEASUREMENT_CLOCKS)
    def test_every_measurement_clock_taints_a_deterministic_kwarg(self, clock):
        hits = findings("DET002", f"""
            import time
            def finish(history):
                history.add_round(downlink_seconds=time.{clock}())
        """)
        assert [f.rule for f in hits] == ["DET002"]
        assert "downlink_seconds" in hits[0].message

    @pytest.mark.parametrize("binding", [
        "elapsed = -perf_counter()",
        "elapsed = perf_counter() if measured else 0.0",
        "elapsed = 0.0; elapsed += perf_counter()",
        "start = elapsed = perf_counter()",
        "elapsed = 2.0 * (perf_counter() - 1.0)",
    ], ids=["unary", "conditional", "augmented", "chained-targets", "nested-binop"])
    def test_taint_propagates_through_local_bindings(self, binding):
        hits = findings("DET002", f"""
            from time import perf_counter
            def finish(record, measured):
                {binding}
                record.staleness = elapsed
        """)
        assert [f.rule for f in hits] == ["DET002"]
        assert ".staleness" in hits[0].message

    def test_fires_on_augmented_deterministic_attribute(self):
        hits = findings("DET002", """
            import time
            def finish(record, start):
                record.uplink_seconds += time.perf_counter() - start
        """)
        assert [f.rule for f in hits] == ["DET002"]
        assert "uplink_seconds" in hits[0].message


# ----------------------------------------------------------------------
# DET003 — codec clone / checkpoint pair
# ----------------------------------------------------------------------
class TestDet003:
    @pytest.mark.parametrize("half,other", [
        ("checkpoint_state", "restore_checkpoint_state"),
        ("restore_checkpoint_state", "checkpoint_state"),
    ])
    def test_fires_on_lone_checkpoint_half(self, half, other):
        hits = findings("DET003", f"""
            class Controller:
                def {half}(self, *args):
                    return {{}}
        """)
        assert len(hits) == 1
        assert other in hits[0].message

    def test_silent_on_full_checkpoint_pair(self):
        assert not findings("DET003", """
            class Controller:
                def checkpoint_state(self):
                    return {}
                def restore_checkpoint_state(self, state):
                    pass
        """)

    def test_fires_on_mutable_codec_without_clone(self):
        hits = findings("DET003", """
            from repro.compression.base import LossyCompressor
            class Adaptive(LossyCompressor):
                def __init__(self):
                    self.history = []
        """)
        assert len(hits) == 1
        assert "clone" in hits[0].message

    def test_silent_when_clone_is_defined(self):
        assert not findings("DET003", """
            from repro.compression.base import LossyCompressor
            class Adaptive(LossyCompressor):
                def __init__(self):
                    self.history = []
                def clone(self):
                    return Adaptive()
        """)

    def test_silent_on_plain_config_attributes(self):
        assert not findings("DET003", """
            from repro.compression.base import LossyCompressor
            class Plain(LossyCompressor):
                def __init__(self, bound):
                    self.bound = float(bound)
        """)

    def test_silent_on_mutable_state_outside_codecs(self):
        assert not findings("DET003", """
            class Ordinary:
                def __init__(self):
                    self.cache = {}
        """)

    @pytest.mark.parametrize("value", [
        "[]", "{}", "{1, 2}",
        "[x for x in range(3)]", "{k: 0 for k in 'ab'}", "{x for x in range(3)}",
        "list()", "dict()", "set()", "bytearray()",
        "deque()", "defaultdict(list)", "OrderedDict()", "Counter()",
    ])
    def test_every_mutable_container_needs_a_clone(self, value):
        hits = findings("DET003", f"""
            from repro.compression.base import LossyCompressor
            class Adaptive(LossyCompressor):
                def __init__(self):
                    self.state = {value}
        """)
        assert [f.rule for f in hits] == ["DET003"]
        assert "Adaptive" in hits[0].message

    @pytest.mark.parametrize("base", [
        "LossyCompressor", "LosslessCompressor", "StagedCompressor",
        "base.FedSZCompressor",
    ])
    def test_every_shallow_clone_base_is_covered(self, base):
        hits = findings("DET003", f"""
            from repro.compression import base
            class Windowed({base}):
                def __init__(self):
                    self.window = []
        """)
        assert [f.rule for f in hits] == ["DET003"]

    def test_silent_on_codec_without_init(self):
        assert not findings("DET003", """
            from repro.compression.base import LossyCompressor
            class Stateless(LossyCompressor):
                def compress(self, array):
                    return array
        """)

    def test_silent_on_local_containers_in_init(self):
        assert not findings("DET003", """
            from repro.compression.base import LossyCompressor
            class Configured(LossyCompressor):
                def __init__(self, bounds):
                    scratch = [float(b) for b in bounds]
                    self.bound = max(scratch)
        """)


# ----------------------------------------------------------------------
# DET004 — silent failure / assert-as-validation
# ----------------------------------------------------------------------
class TestDet004:
    def test_fires_on_bare_except(self):
        hits = findings("DET004", """
            def run(task):
                try:
                    task()
                except:
                    return None
        """)
        assert len(hits) == 1
        assert "bare" in hits[0].message

    def test_fires_on_silent_broad_except(self):
        hits = findings("DET004", """
            def run(task):
                try:
                    task()
                except Exception:
                    pass
        """)
        assert len(hits) == 1
        assert "swallowed" in hits[0].message

    def test_fires_on_runtime_assert(self):
        hits = findings("DET004", """
            def validate(payload):
                assert payload, "payload must not be empty"
        """)
        assert len(hits) == 1
        assert "python -O" in hits[0].message

    def test_silent_on_narrow_except_pass(self):
        assert not findings("DET004", """
            def run(task):
                try:
                    task()
                except (OSError, ValueError):
                    pass
        """)

    def test_silent_on_handled_broad_except(self):
        assert not findings("DET004", """
            def run(task, log):
                try:
                    task()
                except Exception as error:
                    log(error)
        """)

    def test_asserts_allowed_in_test_files(self):
        assert not findings("DET004", """
            def test_payload():
                assert 1 + 1 == 2
        """, path="tests/fake/test_module.py")

    @pytest.mark.parametrize("clause", [
        "except BaseException:\n        pass",
        "except (ValueError, Exception):\n        pass",
        "except builtins.Exception:\n        pass",
        "except Exception:\n        ...",
        "except Exception:\n        \"\"\"Nothing to do.\"\"\"",
    ], ids=["base-exception", "tuple", "attribute", "ellipsis", "docstring"])
    def test_fires_on_every_silent_broad_form(self, clause):
        source = f"import builtins\ndef run(task):\n    try:\n        task()\n    {clause}\n"
        hits = findings("DET004", source)
        assert [f.rule for f in hits] == ["DET004"]
        assert "swallowed" in hits[0].message

    @pytest.mark.parametrize("path", [
        "tests/fake/helpers.py",
        "src/repro/fake/test_module.py",
        "src/repro/fake/conftest.py",
    ])
    def test_asserts_allowed_in_every_test_location(self, path):
        assert not findings("DET004", """
            def check(value):
                assert value
        """, path=path)

    def test_silent_on_reraising_broad_except(self):
        assert not findings("DET004", """
            def run(task):
                try:
                    task()
                except Exception:
                    raise
        """)

    def test_justified_suppression_silences_a_swallow(self):
        assert not findings("DET004", """
            def close(handle):
                try:
                    handle.close()
                except Exception:  # repro-lint: disable=DET004 -- best-effort cleanup
                    pass
        """)


# ----------------------------------------------------------------------
# FORK001 — worker-crossing spec hygiene
# ----------------------------------------------------------------------
class TestFork001:
    def test_fires_on_callable_field(self):
        hits = findings("FORK001", """
            from dataclasses import dataclass
            from typing import Callable
            @dataclass
            class _ClientTaskSpec:
                client_id: int
                model_factory: Callable[[], object]
        """)
        assert len(hits) == 1
        assert "Callable" in hits[0].message

    def test_fires_on_lock_field_and_string_annotation(self):
        hits = findings("FORK001", """
            import threading
            class _WorkerTaskResult:
                guard: threading.Lock
                thunk: "Callable[[], int]"
        """)
        assert len(hits) == 2

    def test_fires_on_lambda_default(self):
        hits = findings("FORK001", """
            from dataclasses import dataclass
            @dataclass
            class FooTaskSpec:
                build = lambda: 3
        """)
        assert len(hits) == 1
        assert "lambda" in hits[0].message

    def test_fires_on_live_object_bound_in_method(self):
        hits = findings("FORK001", """
            import threading
            class BarTaskSpec:
                def __init__(self):
                    self.lock = threading.Lock()
        """)
        assert len(hits) == 1
        assert "Lock" in hits[0].message

    def test_marker_comment_opts_a_class_in(self):
        hits = findings("FORK001", """
            from typing import Callable
            class CustomEnvelope:  # repro-lint: worker-crossing
                handler: Callable
        """)
        assert len(hits) == 1

    def test_silent_on_plain_data_spec(self):
        assert not findings("FORK001", """
            from dataclasses import dataclass, field
            from typing import Dict, List, Optional
            @dataclass
            class _ClientTaskSpec:
                index: int
                client_id: int
                learning_rate: float
                dropped: bool
                client_state: dict
                extras: Dict[str, float] = field(default_factory=dict)
        """)

    def test_default_factory_lambda_is_allowed(self):
        assert not findings("FORK001", """
            from dataclasses import dataclass, field
            @dataclass
            class _WorkerTaskResult:
                payloads: list = field(default_factory=lambda: [])
        """)

    def test_non_crossing_classes_may_hold_callables(self):
        assert not findings("FORK001", """
            from typing import Callable
            class SchedulerConfig:
                tick: Callable[[], None]
        """)

    @pytest.mark.parametrize("name", [
        "_ClientTaskSpec", "_WorkerTaskResult", "DownlinkLinkSpec",
        "ClientCrash", "BroadcastPayload",
    ])
    def test_every_worker_crossing_name_is_checked(self, name):
        hits = findings("FORK001", f"""
            from typing import Callable
            class {name}:
                handler: Callable[[], None]
        """)
        assert [f.rule for f in hits] == ["FORK001"]
        assert name in hits[0].message

    @pytest.mark.parametrize("annotation,forbidden", [
        ("Optional[threading.Lock]", "Lock"),
        ("queue.Queue", "Queue"),
        ("List[Callable[[], int]]", "Callable"),
        ("Dict[str, threading.Event]", "Event"),
        ("'Optional[Thread]'", "Thread"),
    ], ids=["optional-lock", "queue", "list-of-callables", "dict-of-events", "string"])
    def test_fires_on_forbidden_types_nested_in_annotations(self, annotation, forbidden):
        hits = findings("FORK001", f"""
            import queue
            import threading
            from typing import Callable, Dict, List, Optional
            class _ClientTaskSpec:
                live: {annotation}
        """)
        assert [f.rule for f in hits] == ["FORK001"]
        assert f"{forbidden}-typed" in hits[0].message

    def test_fires_on_lambda_inside_a_method(self):
        hits = findings("FORK001", """
            class _WorkerTaskResult:
                def finish(self):
                    self.callback = lambda: None
        """)
        assert [f.rule for f in hits] == ["FORK001"]
        assert "lambda" in hits[0].message

    @pytest.mark.parametrize("constructor", [
        "threading.Thread(target=None)",
        "queue.SimpleQueue()",
        "multiprocessing.Pool(2)",
    ])
    def test_fires_on_every_live_self_binding(self, constructor):
        hits = findings("FORK001", f"""
            import multiprocessing
            import queue
            import threading
            class _ClientTaskSpec:
                def __post_init__(self):
                    self.live = {constructor}
        """)
        assert [f.rule for f in hits] == ["FORK001"]
        assert "self.live" in hits[0].message

    def test_silent_on_live_objects_held_in_locals(self):
        assert not findings("FORK001", """
            import threading
            class _ClientTaskSpec:
                def describe(self):
                    guard = threading.Lock()
                    with guard:
                        return str(self)
        """)


# ----------------------------------------------------------------------
# The real tree stays clean (the CI gate, pinned as a tier-1 test)
# ----------------------------------------------------------------------
def test_repo_src_has_no_findings():
    from pathlib import Path

    from repro.analysis import get_rules, lint_paths

    src = Path(__file__).resolve().parents[2] / "src"
    result = lint_paths([src], get_rules())
    rendered = "\n".join(f.render() for f in result.findings)
    assert not result.findings, f"repro lint src must be clean:\n{rendered}"
