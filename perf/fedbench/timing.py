"""Timing method: a fixed reference kernel brackets every timed op.

This host is a shared 2-vCPU box whose raw wall time for the *same* code
drifts 20-50% between runs, on top of bursts that last tens of milliseconds.
The drift is slow compared to one op, so a fixed piece of work timed just
before and just after the op sees the machine speed the op saw.
Speed-normalised seconds are

    t_op * K0 / mean(reading_before, reading_after)

with ``K0`` frozen below, so metrics keep natural units.  A *reading* is the
fastest of three kernel runs: a burst that hits one 30 ms kernel run would
otherwise make the op it brackets look faster than it was.  Interference only
ever adds time, so the gated statistic of every timing metric is the lower
quartile (p25) over ops; p50 and p90 are reported beside it as layer metrics.
(Measured over 10 runs each, raw p25 spread 5-28%, normalised 3-7%.)
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

#: A reference-kernel reading, in seconds, on the host the baseline was
#: recorded on when idle.  Frozen: changing it rescales every timing metric,
#: so it may only change together with a re-recorded baseline.
K0 = 0.0290


class ReferenceKernel:
    """Fixed numpy/zlib work on fixed arrays; uses no code of the repo.

    Streams memory (``cumsum``), branches (``sort``), runs single-threaded
    BLAS (``matmul``) and zlib at the level the codecs use — the same
    resources the repo's hot paths depend on.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._stream = rng.standard_normal(2_000_000)
        self._keys = rng.standard_normal(400_000)
        self._matrix = rng.standard_normal((320, 320)).astype(np.float32)
        self._bytes = (rng.standard_normal(75_000) * 8).astype(np.int64).tobytes()

    def once(self) -> float:
        start = time.perf_counter()
        np.cumsum(self._stream)
        np.sort(self._keys)
        self._matrix @ self._matrix
        zlib.compress(self._bytes, 6)
        return time.perf_counter() - start

    def reading(self) -> float:
        """Seconds of the fastest of three runs (bursts only ever add time)."""
        return min(self.once(), self.once(), self.once())


@dataclass
class OpSample:
    """One timed op: raw named durations plus the machine-speed factor."""

    parts: Dict[str, float]
    factor: float
    ok: bool
    info: dict = field(default_factory=dict)

    def seconds(self, part: str) -> float:
        """Speed-normalised seconds of one named part."""
        return self.parts[part] * self.factor


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sequence."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def p25(samples: Sequence[OpSample], part: str) -> float:
    """The gated statistic: lower quartile over ops of one part's normalised seconds."""
    return quantile([sample.seconds(part) for sample in samples], 0.25)


def run_ops(
    kernel: ReferenceKernel,
    op: Callable[[int], OpSample],
    seconds: float,
    min_ops: int,
    warmup: int = 0,
) -> List[OpSample]:
    """Closed loop: kernel, op, kernel, op, ... for ``seconds`` (>= ``min_ops``).

    ``op(index)`` times its own parts with ``perf_counter`` and runs its
    correctness check *after* them, so checks sit outside every timed region;
    it returns an :class:`OpSample` whose ``factor`` this loop fills in from
    the two kernel readings around it.  ``warmup`` ops run first, unrecorded.
    """
    for index in range(warmup):
        op(index - warmup)
    samples: List[OpSample] = []
    deadline = time.perf_counter() + seconds
    before = kernel.reading()
    while len(samples) < min_ops or time.perf_counter() < deadline:
        sample = op(len(samples))
        after = kernel.reading()
        sample.info["kernel_s"] = 0.5 * (before + after)
        sample.factor = K0 / sample.info["kernel_s"]
        samples.append(sample)
        before = after
    return samples


def timed_setup(kernel: ReferenceKernel, build: Callable[[], object], reps: int):
    """Run ``build`` ``reps`` times; return ``(last_built, fastest normalised s)``.

    The fastest, not the median: a set-up allocates hundreds of MB, and the
    page faults of first-touched memory cost this host anything from 0.1 s to
    2 s of system time from one minute to the next (user time stays put).
    Earlier builds are dropped before the next one starts, so repetition does
    not raise peak memory.
    """
    built = None
    seconds: List[float] = []
    for _ in range(reps):
        built = None
        before = kernel.reading()
        start = time.perf_counter()
        built = build()
        elapsed = time.perf_counter() - start
        after = kernel.reading()
        seconds.append(elapsed * K0 / (0.5 * (before + after)))
    return built, min(seconds)
