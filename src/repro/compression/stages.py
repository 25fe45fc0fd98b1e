"""Composable stage pipeline shared by every EBLC codec.

The FedSZ paper's codecs (SZ2, SZ3, SZx, ZFP) all follow the same shape —
SZ3 itself is explicitly architected this way, as a modular
predictor/quantizer/encoder pipeline:

.. code-block:: text

                 ┌────────────┐   ┌───────────┐   ┌──────────────┐
    tensor ───▶  │ Predictor  │──▶│ Quantizer │──▶│ EntropyStage │──▶ payload
                 │   stage    │   │  (2ε grid)│   │  (DEFLATE)   │
                 └────────────┘   └───────────┘   └──────────────┘

Everything that is *not* prediction lives here, in exactly one place:

* :class:`StageContext` — the per-invocation facts every stage sees (size,
  shape, dtype, resolved absolute bound, codec parameters);
* :class:`PredictorStage` — the one interface a new codec must implement
  (``encode`` sections from the flat tensor, ``decode`` them back);
* :class:`Quantizer` / :class:`EntropyStage` — the shared ``2ε`` uniform
  quantization and entropy-coding stages;
* metadata framing (:func:`pack_stage_meta` / :func:`unpack_stage_meta`) and
  the raw fallback for empty or constant inputs;
* :class:`StagedCompressor` — the generic composition: validate → resolve
  bound → predictor → frame.  SZ2/SZ3/SZx/ZFP are each a thin
  :class:`PredictorStage` plus a :class:`StagedCompressor` subclass exposing
  their tuning knobs.

Adding a codec therefore means writing one predictor stage (see
``README.md`` → "Adding a codec as a predictor stage") and registering it
with :func:`repro.compression.registry.register_predictor`.

Stages are stateless: all state flows through the :class:`StageContext`, so
codec ``clone()`` is a shallow copy and concurrent per-tensor compression
(see :mod:`repro.core.pipeline`) needs no locking.
"""

from __future__ import annotations

import functools
import json
import math
import re
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import (
    ErrorBoundMode,
    LossyCompressor,
    pack_array,
    pack_sections,
    resolve_error_bound,
    unpack_array,
    unpack_sections,
    validate_lossy_input,
)
from repro.compression.entropy import decode_indices, encode_indices
from repro.compression.errors import CorruptPayloadError
from repro.compression.quantizer import dequantize_residuals, quantize_residuals

#: Shared payload version for every staged codec (bumped from the per-codec
#: version 2 formats the monolithic implementations used).
STAGED_FORMAT_VERSION = 3

_META_STRUCT = struct.Struct("<IQdB")
_DTYPE_LEN = struct.Struct("<H")
_NDIM = struct.Struct("<B")
_PARAMS_LEN = struct.Struct("<I")
_FLOAT_DTYPE = re.compile(rb"[<>=]f[0-9]+")
_PARAMS_JSON = json.JSONEncoder(sort_keys=True)  # ``json.dumps`` builds one per call
#: Entries each metadata cache keeps: far more than the distinct dtypes and
#: parameter sets of any run, few enough that a forged stream cannot grow them.
_CACHE_SIZE = 64
_PARAMS_BLOBS: Dict[str, bytes] = {}


@dataclass
class StageContext:
    """Per-invocation facts shared by every stage of one (de)compression.

    ``params`` carries the codec-specific scalars that must round-trip through
    the payload metadata (block size, cubic flag, retained precision, ...);
    predictors populate it in :meth:`PredictorStage.prepare` and read it back
    in :meth:`PredictorStage.decode`, so a decoder instance configured
    differently from the encoder still decodes faithfully.
    """

    size: int
    shape: Tuple[int, ...]
    dtype: np.dtype
    error_bound: float = 0.0
    mode: ErrorBoundMode = ErrorBoundMode.REL
    absolute_bound: float = 0.0
    raw: bool = False
    params: Dict[str, object] = field(default_factory=dict)
    #: ``max - min`` of the input as validation measured it; ``None`` (the
    #: decode side, or a context built by hand) leaves bound resolution to scan.
    value_range: Optional[float] = None

    @property
    def bin_width(self) -> float:
        """Uniform quantization grid spacing (``2ε``)."""
        return 2.0 * self.absolute_bound


class Quantizer:
    """Uniform error-bounded quantization stage (grid width ``2ε``).

    Thin stage wrapper over :mod:`repro.compression.quantizer`'s residual
    primitives: ``encode`` maps value-minus-prediction onto signed bin
    indices, ``decode`` reconstructs ``prediction + index * 2ε``, which keeps
    the element-wise error within ``ε`` by construction.  ``bound`` is the
    tensor's ``ctx.absolute_bound``, or a column of one bound per row when the
    rows come from several tensors.  Both work in the float64 array ``out``
    when one is given, so a predictor can run every step of a tensor through
    one scratch buffer.
    """

    @staticmethod
    def encode(
        values: np.ndarray,
        predictions: np.ndarray,
        bound: float | np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return quantize_residuals(values, predictions, bound, out=out)

    @staticmethod
    def decode(
        indices: np.ndarray,
        predictions: np.ndarray,
        bound: float | np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return dequantize_residuals(indices, predictions, bound, out=out)


@dataclass(frozen=True)
class EntropyStage:
    """Entropy-coding stage over quantization indices (DEFLATE)."""

    level: int = 6

    def encode(self, indices: np.ndarray) -> bytes:
        return encode_indices(indices, self.level)

    @staticmethod
    def decode(payload: bytes) -> np.ndarray:
        # Entropy payloads are self-describing, so decode needs no config.
        return decode_indices(payload)


class PredictorStage(ABC):
    """The one interface a codec must implement in the stage pipeline.

    ``prepare`` resolves the error bound (the shared default handles the
    ABS/REL semantics and the zero-bound raw fallback) and records the
    codec parameters that must survive into the payload metadata.
    ``encode`` turns the flat tensor into named payload sections; ``decode``
    is its exact inverse, reading parameters from the context the metadata was
    unpacked into.  ``flat`` arrives in the tensor's own float dtype, never as
    a copy: a predictor that computes in float64 upcasts what it needs (SZ2
    and SZx a slab at a time) and reduces with ``dtype=np.float64``.  ``decode``
    may return float64 or ``ctx.dtype``.  Implementations must be stateless —
    every per-call fact belongs on the :class:`StageContext`.

    That is all a codec writes.  It inherits :meth:`encode_group` and
    :meth:`decode_group`, through which :class:`StagedCompressor` hands over
    consecutive tensors: the defaults take them one at a time, and a predictor
    whose per-call set-up outweighs a small tensor overrides them (SZ2 walks
    a run of small tensors as one slab) without moving a byte of any section.
    """

    #: Human-readable stage name (diagnostics only).
    name: str = "predictor"

    def prepare(self, flat: np.ndarray, ctx: StageContext) -> None:
        """Resolve the bound and decide whether to fall back to raw storage.

        The default covers every strictly-bounded SZ-style codec: resolve the
        (bound, mode) pair into an absolute tolerance, and store the input
        raw when it is empty or constant (zero resolved bound) — exact
        storage is trivially cheap for both.
        """
        ctx.absolute_bound = resolve_error_bound(flat, ctx.error_bound, ctx.mode, ctx.value_range)
        ctx.raw = ctx.size == 0 or ctx.absolute_bound <= 0

    @abstractmethod
    def encode(self, flat: np.ndarray, ctx: StageContext) -> Dict[str, bytes]:
        """Compress the flat tensor (in its own dtype) into named payload sections."""

    @abstractmethod
    def decode(self, sections: Mapping[str, bytes], ctx: StageContext) -> np.ndarray:
        """Reconstruct the flat array (float64 or ``ctx.dtype``) from payload sections."""

    def encode_group(
        self, flats: Sequence[np.ndarray], ctxs: Sequence[StageContext]
    ) -> List[Dict[str, bytes]]:
        """:meth:`encode` of each prepared, non-raw tensor, in order."""
        return [self.encode(flat, ctx) for flat, ctx in zip(flats, ctxs, strict=True)]

    def decode_group(
        self, sections: Sequence[Mapping[str, bytes]], ctxs: Sequence[StageContext]
    ) -> List[np.ndarray]:
        """:meth:`decode` of each non-raw payload, in order."""
        return [self.decode(member, ctx) for member, ctx in zip(sections, ctxs, strict=True)]


def _params_blob(params: Mapping[str, object]) -> bytes:
    """The JSON of a context's codec parameters, encoded once per distinct value.

    A codec gives every tensor the same few scalars, so the blob is looked up
    by the parameters' ``repr``, which tells apart what ``==`` does not but
    JSON does (``True`` / ``1`` / ``1.0``, ``0.0`` / ``-0.0``).  The cache
    holds immutable bytes and stops growing at ``_CACHE_SIZE`` entries.
    """
    key = repr(params)
    blob = _PARAMS_BLOBS.get(key)
    if blob is None:
        blob = _PARAMS_JSON.encode(params).encode("utf-8")
        if len(_PARAMS_BLOBS) < _CACHE_SIZE:
            _PARAMS_BLOBS[key] = blob
    return blob


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _dtype_field(dtype: np.dtype) -> bytes:
    """A metadata section's length-prefixed dtype name."""
    name = dtype.str.encode("ascii")
    return _DTYPE_LEN.pack(len(name)) + name


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _float_dtype(name: bytes) -> Optional[np.dtype]:
    """The float dtype a metadata section names, or ``None`` for a name that
    is not one.  Only what ``dtype.str`` of a float array looks like reaches
    numpy, whose dtype parser raises anything up to SyntaxError."""
    return np.dtype(name.decode("ascii")) if _FLOAT_DTYPE.fullmatch(name) else None


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _params_items(blob: bytes) -> Optional[Tuple[Tuple[str, object], ...]]:
    """The codec parameters a metadata section's JSON holds, parsed once per
    distinct blob: ``None`` when the JSON is not an object.  The cached tuple
    is immutable; each context gets a dict of its own."""
    params = json.loads(blob.decode("utf-8"))
    return tuple(params.items()) if isinstance(params, dict) else None


def pack_stage_meta(ctx: StageContext) -> bytes:
    """Serialize the shared metadata section for a staged payload."""
    params_blob = _params_blob(ctx.params)
    return b"".join((
        _META_STRUCT.pack(
            STAGED_FORMAT_VERSION, ctx.size, float(ctx.absolute_bound), 1 if ctx.raw else 0
        ),
        _dtype_field(np.dtype(ctx.dtype)),
        struct.pack(f"<B{len(ctx.shape)}qI", len(ctx.shape), *ctx.shape, len(params_blob)),
        params_blob,
    ))


def unpack_stage_meta(blob: bytes | None, codec: str) -> StageContext:
    """Inverse of :func:`pack_stage_meta`, validating the format version."""
    if not blob or len(blob) < _META_STRUCT.size:
        raise CorruptPayloadError(f"{codec} payload missing metadata section")
    try:
        version, size, absolute_bound, raw = _META_STRUCT.unpack_from(blob, 0)
        if version != STAGED_FORMAT_VERSION:
            raise CorruptPayloadError(f"unsupported {codec} payload version {version}")
        cursor = _META_STRUCT.size
        (dtype_len,) = _DTYPE_LEN.unpack_from(blob, cursor)
        cursor += 2
        dtype = _float_dtype(bytes(blob[cursor : cursor + dtype_len]))
        if dtype is None:
            raise CorruptPayloadError(f"{codec} payload is not of a float dtype")
        cursor += dtype_len
        (ndim,) = _NDIM.unpack_from(blob, cursor)
        cursor += 1
        shape: Tuple[int, ...] = ()
        if ndim:
            shape = struct.unpack_from(f"<{ndim}q", blob, cursor)
            cursor += 8 * ndim
        (params_len,) = _PARAMS_LEN.unpack_from(blob, cursor)
        cursor += 4
        if cursor + params_len != len(blob):
            raise CorruptPayloadError(
                f"{codec} payload metadata declares {params_len} params bytes, "
                f"its section holds {len(blob) - cursor}"
            )
        params = _params_items(bytes(blob[cursor : cursor + params_len]))
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError, TypeError) as error:
        raise CorruptPayloadError(f"corrupt {codec} payload metadata: {error}") from error
    # Python ints: a forged shape cannot wrap the element count around.
    if min(shape, default=0) < 0 or math.prod(shape) != size or params is None:
        raise CorruptPayloadError(f"{codec} payload metadata disagrees with itself")
    return StageContext(
        size=size,
        shape=shape,
        dtype=dtype,
        absolute_bound=absolute_bound,
        raw=bool(raw),
        params=dict(params),
    )


class _Sections(Dict[str, bytes]):
    """Payload sections by name; asking for one the payload lacks is corruption."""

    def __missing__(self, name: str) -> bytes:
        raise CorruptPayloadError(f"payload has no {name!r} section")


class StagedCompressor(LossyCompressor):
    """Generic error-bounded compressor composed from a predictor stage.

    Subclasses hold the codec's tuning knobs as plain instance attributes
    (so ``FedSZConfig.lossy_options`` can keep overriding them by name) and
    build their predictor per call from those attributes — predictor
    construction is a couple of attribute assignments, so this costs nothing
    and guarantees option mutations are always picked up.  ``compress`` makes
    no copy of the tensor: validation and bound resolution read it in place.
    """

    def _predictor(self) -> PredictorStage:
        raise NotImplementedError(f"{type(self).__name__} must build its predictor stage")

    def compress_group(
        self,
        tensors: Sequence[np.ndarray],
        error_bound: float,
        mode: ErrorBoundMode = ErrorBoundMode.REL,
        ranges: Optional[List[float]] = None,
    ) -> List[bytes]:
        predictor = self._predictor()
        members = []
        for data in tensors:
            data, value_range = validate_lossy_input(data, codec=self.name)
            ctx = StageContext(
                size=data.size,
                shape=data.shape,
                dtype=data.dtype,
                error_bound=float(error_bound),
                mode=mode,
                value_range=value_range,
            )
            flat = data.ravel()
            predictor.prepare(flat, ctx)
            members.append((data, flat, ctx))
        if ranges is not None:
            ranges.extend(ctx.value_range for _, _, ctx in members)
        staged = [(flat, ctx) for _, flat, ctx in members if not ctx.raw]
        encoded = iter(predictor.encode_group(*zip(*staged, strict=True)) if staged else ())
        return [
            pack_sections(
                {"meta": pack_stage_meta(ctx)}
                | ({"raw": pack_array(data)} if ctx.raw else next(encoded))
            )
            for data, _, ctx in members
        ]

    def compress(
        self,
        data: np.ndarray,
        error_bound: float,
        mode: ErrorBoundMode = ErrorBoundMode.REL,
    ) -> bytes:
        return self.compress_group([data], error_bound, mode)[0]

    def decompress_group(self, payloads: Sequence[bytes]) -> List[np.ndarray]:
        members = []
        for payload in payloads:
            sections = _Sections(unpack_sections(payload))
            members.append((sections, unpack_stage_meta(sections.get("meta"), self.name)))
        staged = [member for member in members if not member[1].raw]
        decoded = iter(self._predictor().decode_group(*zip(*staged, strict=True)) if staged else ())
        return [
            unpack_array(sections["raw"])
            if ctx.raw
            else next(decoded).astype(ctx.dtype, copy=False).reshape(ctx.shape)
            for sections, ctx in members
        ]

    def decompress(self, payload: bytes) -> np.ndarray:
        return self.decompress_group([payload])[0]


__all__ = [
    "STAGED_FORMAT_VERSION",
    "StageContext",
    "Quantizer",
    "EntropyStage",
    "PredictorStage",
    "StagedCompressor",
    "pack_stage_meta",
    "unpack_stage_meta",
]
