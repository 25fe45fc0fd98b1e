"""The FedSZ compression / decompression pipeline (Figure 1).

``compress_state_dict`` implements the client-side pipeline:

1. partition the ``state_dict`` into lossy and lossless components
   (Algorithm 1);
2. run the error-bounded lossy compressor over each large weight tensor and
   the lossless codec over the serialized remainder;
3. assemble a single self-describing bitstream for transmission.

Step 2 is a :class:`TensorTask`-based engine: the codec cuts the lossy
partition into groups (``LossyCompressor.group_slices`` — a tensor each, or for
SZ2 a run of small tensors that share one slab walk), each group is one
``compress_group`` call, and when the groups are big enough to scale
(:func:`resolve_codec_workers`) they run concurrently on lanes — codec stages
are stateless (each lane gets its own ``clone()``) and the vectorized
numpy/zlib kernels release the GIL.  Every tensor keeps its own payload and
results are assembled in state-dict order, so the bitstream is byte-identical
whatever the grouping or the worker count.  The wall time of the codec phase
is split over the groups by their measured seconds and over a group's tensors
by ``nbytes`` into the :class:`FedSZReport` (``per_tensor_compress_seconds`` /
``per_tensor_decompress_seconds``), which is what the Figure 6 epoch-breakdown
harness sums as *measured* codec time.

``decompress_state_dict`` implements the server-side inverse: split the
bitstream, decompress both partitions (on the same pool rule), reshape every
entry back to its tensor and return a state dict that can be loaded straight
into the global model.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compression.errors import CorruptPayloadError
from repro.compression.registry import get_lossless_compressor, get_lossy_compressor
from repro.core.config import FedSZConfig
from repro.core.partition import partition_state_dict
from repro.core.serializer import (
    build_fedsz_payload,
    deserialize_named_arrays,
    parse_fedsz_payload,
    serialize_named_arrays,
)
from repro.utils.pools import pool_width, run_lanes
from repro.utils.timing import lane_clock


@dataclass
class FedSZReport:
    """Size and runtime accounting for one compression invocation."""

    original_nbytes: int = 0
    compressed_nbytes: int = 0
    lossy_original_nbytes: int = 0
    lossy_compressed_nbytes: int = 0
    lossless_original_nbytes: int = 0
    lossless_compressed_nbytes: int = 0
    lossy_tensor_count: int = 0
    lossless_tensor_count: int = 0
    compress_seconds: float = 0.0
    decompress_seconds: Optional[float] = None
    #: Workers actually used for per-tensor codec work (1 = serial path).
    codec_workers: int = 1
    per_tensor_ratio: Dict[str, float] = field(default_factory=dict)
    #: Measured codec wall time by lossy tensor.  Unlike ``compress_seconds``
    #: — the aggregate pipeline wall including partitioning, the lossless pass
    #: and serialization — these are the codec-kernel seconds Figure 6 reports
    #: as FedSZ overhead.  One key per tensor; tensors the codec coded as one
    #: group share that group's measured seconds in proportion to ``nbytes``,
    #: and the map sums to the codec phase's wall time at any worker count.
    per_tensor_compress_seconds: Dict[str, float] = field(default_factory=dict)
    per_tensor_decompress_seconds: Dict[str, float] = field(default_factory=dict)
    #: ``max - min`` of each lossy tensor, from the codec's validation scan: the
    #: range a REL bound scales, so bound utilization needs no scan of its own.
    per_tensor_range: Dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Overall state-dict compression ratio."""
        if self.compressed_nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.compressed_nbytes

    @property
    def lossy_ratio(self) -> float:
        """Compression ratio of the lossy partition alone."""
        if self.lossy_compressed_nbytes == 0:
            return float("inf")
        return self.lossy_original_nbytes / self.lossy_compressed_nbytes

    @property
    def lossless_ratio(self) -> float:
        """Compression ratio of the lossless partition alone."""
        if self.lossless_compressed_nbytes == 0:
            return float("inf")
        return self.lossless_original_nbytes / self.lossless_compressed_nbytes

    @property
    def lossy_compress_seconds(self) -> float:
        """Measured codec seconds over the lossy partition (sum of per-tensor)."""
        return float(sum(self.per_tensor_compress_seconds.values()))

    @property
    def lossy_decompress_seconds(self) -> float:
        """Measured codec seconds to decode the lossy partition."""
        return float(sum(self.per_tensor_decompress_seconds.values()))

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for tabulation in experiment reports."""
        return {
            "ratio": self.ratio,
            "lossy_ratio": self.lossy_ratio,
            "lossless_ratio": self.lossless_ratio,
            "original_mb": self.original_nbytes / 1e6,
            "compressed_mb": self.compressed_nbytes / 1e6,
            "compress_seconds": self.compress_seconds,
            "lossy_tensors": self.lossy_tensor_count,
            "lossless_tensors": self.lossless_tensor_count,
        }


@dataclass(frozen=True)
class TensorTask:
    """One unit of codec work: a named tensor from the lossy partition."""

    name: str
    tensor: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(np.asarray(self.tensor).nbytes)


def resolve_codec_workers(config: FedSZConfig, codec, group_sizes: Sequence[int]) -> int:
    """Lanes for ``codec``'s groups of these value counts under ``config``.

    A group of at least ``codec.pool_min_values`` values is one lane: the
    size from which the codec gains on threads.  2 lanes against 1 on eight
    equal float32 tensors (the codec's groups of them; REL 1e-2, BLAS pinned,
    2 vCPUs, medians of 5), compress / decompress:
      values  sz2          sz3          szx          zfp
      2^15    1.38 / 1.35  0.89 / 1.00  0.76 / 0.67  1.79 / 1.46
      2^16    1.61 / 1.44  1.11 / 1.26  0.91 / 0.78  1.89 / 1.67
      2^17    1.54 / 1.47  1.56 / 1.53  1.14 / 1.07  1.89 / 1.82
      2^18    1.63 / 1.61  1.66 / 1.78  1.09 / 0.99  2.03 / 1.76
      2^19    1.47 / 1.58  1.53 / 1.72  1.14 / 1.23  1.69 / 1.88
      2^20    1.73 / 1.62  1.54 / 1.59  1.15 / 1.01  1.85 / 1.65
      2^21    1.44 / 1.54  1.60 / 1.71  1.32 / 1.06  1.87 / 1.51
    SZx's short memory-bound passes convoy on the GIL, so it stays at 2^20.
    The lanes, capped by ``config.max_codec_workers``, go through
    :func:`~repro.utils.pools.pool_width` — so inside an executor's lanes and
    workers the codec stays serial.
    """
    return pool_width(_scaling_groups(codec, group_sizes), config.max_codec_workers)


def _scaling_groups(codec, group_sizes: Sequence[int]) -> int:
    """How many of these groups hold at least ``codec.pool_min_values`` values."""
    return sum(size >= codec.pool_min_values for size in group_sizes)


def _lossy_codec(config: FedSZConfig):
    """The lossy codec ``config`` names, with its ``lossy_options`` set."""
    lossy_codec = get_lossy_compressor(config.lossy_compressor)
    for option, value in config.lossy_options.items():
        # Only override attributes the codec actually defines — silently
        # setattr-ing a typo ("blocksize") onto the instance would leave the
        # intended option at its default with no error anywhere.
        if not hasattr(lossy_codec, option):
            valid = sorted(
                name
                for name in vars(lossy_codec)
                if not name.startswith("_") and not callable(getattr(lossy_codec, name))
            )
            raise ValueError(
                f"unknown option {option!r} for lossy compressor "
                f"{config.lossy_compressor!r}; available options: {valid}"
            )
        setattr(lossy_codec, option, value)
    return lossy_codec


def _group_sizes(lossy_codec, sizes: Sequence[int]) -> Tuple[List[slice], List[int]]:
    """The codec's groups of tensors of these value counts, and each group's values."""
    runs = lossy_codec.group_slices(sizes)
    return runs, [sum(sizes[run]) for run in runs]


def codes_off_the_gil(state_dict: Mapping[str, np.ndarray], config: FedSZConfig) -> bool:
    """Whether compressing ``state_dict`` under ``config`` walks a group big
    enough for the codec to gain on a thread (:func:`resolve_codec_workers`'s
    lane rule): a compress that then spends long stretches in GIL-free numpy
    / zlib kernels, so it can overlap Python work on another thread."""
    lossy_codec = _lossy_codec(config)
    partition = partition_state_dict(state_dict, config.partition_threshold)
    _, group_sizes = _group_sizes(lossy_codec, [tensor.size for tensor in partition.lossy.values()])
    return _scaling_groups(lossy_codec, group_sizes) > 0


def _run_codec_tasks(
    tasks: Sequence, sizes: Sequence[int], workers: int, codec, call: Callable
) -> List[Tuple[list, float]]:
    """``call(codec, task)`` of every task with its share of the wall, in task order.

    Serially, or on :func:`~repro.utils.pools.run_lanes` with a ``clone()`` of
    the codec a lane, so no codec instance is shared across threads — cheap
    because stage-based clones are shallow copies.  The lanes take the
    largest ``sizes`` first, so no lane is left finishing a big group alone
    (of several failing groups, the largest's error is raised).  Seconds are
    scaled to sum to the call's wall time: pooled tasks overlap.
    """

    def timed(task_codec, task) -> Tuple[list, float]:
        clock = lane_clock()
        start = clock()
        result = call(task_codec, task)
        return result, clock() - start

    clock = lane_clock()
    start = clock()
    if workers <= 1:
        outcomes = [timed(codec, task) for task in tasks]
    else:
        order = sorted(range(len(tasks)), key=lambda index: -sizes[index])
        pooled = run_lanes([tasks[i] for i in order], timed, workers, lambda _: codec.clone())
        by_task = sorted(zip(order, pooled, strict=True), key=operator.itemgetter(0))
        outcomes = [outcome for _, outcome in by_task]
    wall = clock() - start
    busy = sum(seconds for _, seconds in outcomes) or 1.0
    return [(result, seconds * wall / busy) for result, seconds in outcomes]


def _shares(seconds: float, weights: Sequence[int]) -> List[float]:
    """A group's measured seconds split over its members by their bytes."""
    total = sum(weights) or 1
    return [seconds * weight / total for weight in weights]


def _header_codec(factory: Callable, header: Mapping[str, object], key: str):
    """The codec a received header names; an unusable name is a corrupt payload."""
    try:
        return factory(header[key])
    except (KeyError, AttributeError) as error:  # missing or unregistered; not a string
        raise CorruptPayloadError(f"FedSZ header has no usable {key!r}: {error}") from error


def _header_layout(header: Mapping[str, object], name: str) -> Tuple[Tuple[int, ...], str]:
    """The shape and dtype string a received header gives one lossy tensor."""
    try:
        shape, dtype = header["lossy_shapes"][name], header["lossy_dtypes"][name]
        if min(shape, default=0) < 0 or not isinstance(dtype, str):
            raise ValueError(f"shape {shape!r}, dtype {dtype!r}")
        return tuple(map(operator.index, shape)), dtype
    except (KeyError, TypeError, ValueError) as error:
        raise CorruptPayloadError(f"FedSZ header does not describe {name!r}: {error}") from error


def compress_state_dict(
    state_dict: Mapping[str, np.ndarray],
    config: Optional[FedSZConfig] = None,
) -> Tuple[bytes, FedSZReport]:
    """Compress a model state dict into a FedSZ bitstream.

    Returns the payload plus a :class:`FedSZReport` describing what happened.
    """
    config = config or FedSZConfig()
    clock = lane_clock()
    start = clock()

    partition = partition_state_dict(state_dict, config.partition_threshold)
    lossy_codec = _lossy_codec(config)
    lossless_codec = get_lossless_compressor(config.lossless_compressor)

    tasks = [TensorTask(name=name, tensor=tensor) for name, tensor in partition.lossy.items()]
    runs, group_sizes = _group_sizes(lossy_codec, [task.tensor.size for task in tasks])
    groups = [tasks[run] for run in runs]
    workers = resolve_codec_workers(config, lossy_codec, group_sizes)

    lossy_nbytes, lossless_nbytes = partition.lossy_nbytes, partition.lossless_nbytes
    report = FedSZReport(
        original_nbytes=lossy_nbytes + lossless_nbytes,
        lossy_original_nbytes=lossy_nbytes,
        lossless_original_nbytes=lossless_nbytes,
        lossy_tensor_count=len(partition.lossy),
        lossless_tensor_count=len(partition.lossless),
        codec_workers=workers,
    )

    def compress_group(codec, group: Sequence[TensorTask]) -> Tuple[List[bytes], List[float]]:
        flats = [np.ascontiguousarray(task.tensor).ravel() for task in group]
        ranges: List[float] = []
        payloads = codec.compress_group(flats, config.error_bound, config.error_bound_mode, ranges)
        return payloads, ranges

    outcomes = _run_codec_tasks(groups, group_sizes, workers, lossy_codec, compress_group)

    lossy_payloads: Dict[str, bytes] = {}
    lossy_shapes: Dict[str, list] = {}
    lossy_dtypes: Dict[str, str] = {}
    for group, ((payloads, ranges), seconds) in zip(groups, outcomes, strict=True):
        shares = _shares(seconds, [task.nbytes for task in group])
        for task, payload, value_range, share in zip(group, payloads, ranges, shares, strict=True):
            lossy_payloads[task.name] = payload
            lossy_shapes[task.name] = list(task.tensor.shape)
            lossy_dtypes[task.name] = task.tensor.dtype.str
            report.per_tensor_ratio[task.name] = task.nbytes / max(len(payload), 1)
            report.per_tensor_compress_seconds[task.name] = share
            report.per_tensor_range[task.name] = value_range

    lossless_blob = lossless_codec.compress(serialize_named_arrays(partition.lossless))

    header = {
        "lossy_compressor": config.lossy_compressor,
        "lossless_compressor": config.lossless_compressor,
        "error_bound": config.error_bound,
        "error_bound_mode": config.error_bound_mode.value,
        "partition_threshold": config.partition_threshold,
        "lossy_shapes": lossy_shapes,
        "lossy_dtypes": lossy_dtypes,
    }
    payload = build_fedsz_payload(header, lossy_payloads, lossless_blob)

    report.lossy_compressed_nbytes = sum(len(blob) for blob in lossy_payloads.values())
    report.lossless_compressed_nbytes = len(lossless_blob)
    report.compressed_nbytes = len(payload)
    report.compress_seconds = clock() - start
    return payload, report


def decompress_state_dict(
    payload: bytes,
    config: Optional[FedSZConfig] = None,
    report: Optional[FedSZReport] = None,
) -> Dict[str, np.ndarray]:
    """Reconstruct a state dict from a FedSZ bitstream.

    ``config`` only supplies the codec pool's cap (``max_codec_workers``);
    which codecs to use is read from the payload header, so a plain
    ``decompress_state_dict(blob)`` keeps decoding any FedSZ payload.  When
    ``report`` is given, the decode's seconds (``decompress_seconds``, read on
    the clock ``compress_seconds`` is) and the measured per-tensor decode times
    are recorded on it.
    """
    clock = lane_clock()
    start = clock()
    config = config or FedSZConfig()
    header, lossy_payloads, lossless_blob = parse_fedsz_payload(payload)
    lossy_codec = _header_codec(get_lossy_compressor, header, "lossy_compressor")
    lossless_codec = _header_codec(get_lossless_compressor, header, "lossless_compressor")

    # The header is outside input.  Its shapes only schedule the work (what is
    # walked together the codec cuts from each payload's own metadata, and
    # whether the pool runs), and they shape nothing before they agree with
    # what was decoded.
    names = list(lossy_payloads)
    layout = {name: _header_layout(header, name) for name in names}
    sizes = [math.prod(shape) for shape, _ in layout.values()]
    runs, group_sizes = _group_sizes(lossy_codec, sizes)
    groups = [names[run] for run in runs]
    workers = resolve_codec_workers(config, lossy_codec, group_sizes)

    def decompress_group(codec, group: Sequence[str]) -> List[np.ndarray]:
        return codec.decompress_group([lossy_payloads[name] for name in group])

    outcomes = _run_codec_tasks(groups, group_sizes, workers, lossy_codec, decompress_group)

    if report is not None:
        # The map describes exactly this payload — never a union with keys
        # left over from a previous decompression recorded on the same report.
        report.per_tensor_decompress_seconds.clear()

    state: Dict[str, np.ndarray] = {}
    for group, (flats, seconds) in zip(groups, outcomes, strict=True):
        shares = _shares(seconds, [flat.nbytes for flat in flats])
        for name, flat, share in zip(group, flats, shares, strict=True):
            shape, dtype = layout[name]
            if math.prod(shape) != flat.size or dtype != flat.dtype.str:
                raise CorruptPayloadError(
                    f"FedSZ header describes {name!r} as {dtype!r}{shape}, "
                    f"its payload holds {flat.dtype.str!r}{flat.shape}"
                )
            state[name] = flat.reshape(shape)
            if report is not None:
                report.per_tensor_decompress_seconds[name] = share

    state.update(deserialize_named_arrays(lossless_codec.decompress(lossless_blob)))
    if report is not None:
        report.decompress_seconds = clock() - start
    return state
