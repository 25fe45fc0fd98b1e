"""Every decode entry point fails closed on every forgery of a valid payload.

:mod:`_fuzz.mutator` derives, from one valid payload, every truncation, byte
flip and low-bit flip, every count and length field set wrong, and every
section dropped, doubled, swapped or trading data.  Each forgery must either
raise the entry point's corruption error, :class:`CorruptPayloadError` (or
:class:`CheckpointError` for a checkpoint), or decode to a value of the kind a
valid payload decodes to.  Any other exception is an escape: a caller that
handles corruption would crash on it instead.  The entry points:

- the four lossy codecs, over small seeds that walk their distinct decoder
  paths (three dtypes, both modes, a sub-block tensor, a 0-d one, an empty one
  and a constant one);
- the FedSZ container, over every lossy backend and every lossless one;
- every lossless codec;
- ``RunCheckpoint.from_bytes``, with the stored checksum (stale for every
  forgery) and with one recomputed for it, as a forger would.

Three forgeries of the lossy codecs' stage metadata must raise, not decode: a
params length that runs past the section or stops short of its end, and bytes
after the params.
"""

from __future__ import annotations

import struct
import warnings
from typing import Callable

import numpy as np
import pytest

from _fuzz.mutator import FAMILIES, mutants, parse, serialize
from golden.cases import CODECS, EDGES, weights
from repro.compression import ErrorBoundMode, available_lossless_compressors
from repro.compression.base import pack_sections, unpack_sections
from repro.compression.errors import CorruptPayloadError
from repro.compression.registry import get_lossless_compressor
from repro.core import FedSZCompressor
from repro.core.serializer import frame_checksummed, unframe_checksummed
from repro.fl.checkpoint import CHECKPOINT_MAGIC, CheckpointError, RunCheckpoint

#: Families that apply to any bytes; the others need a section stream.
BYTE_FAMILIES = ("truncate", "flip", "bit")

LOSSY_SEEDS = {
    "weights-600-float32-REL": (lambda: weights(600, "float32"), "REL", 1e-2),
    "weights-600-float64-ABS": (lambda: weights(600, "float64"), "ABS", 1e-3),
    "weights-600-float16-REL": (lambda: weights(600, "float16"), "REL", 1e-2),
    "sub-block": (lambda: EDGES["sub-block"]("float32"), "REL", 1e-2),
    "scalar": (lambda: EDGES["scalar"]("float64"), "REL", 1e-2),
    "empty": (lambda: EDGES["empty"]("float32"), "REL", 1e-2),
    "constant-256": (lambda: np.full(256, 0.125, dtype=np.float32), "REL", 1e-2),
}

FEDSZ_BACKENDS = [(lossy, "blosc-lz") for lossy in CODECS] + [
    ("sz2", lossless) for lossless in available_lossless_compressors() if lossless != "blosc-lz"
]


def _sweep(
    payload: bytes, family: str, decode: Callable, kind: type, error=CorruptPayloadError, exact=None
):
    """Every forgery raises ``error`` or decodes to a ``kind`` (to ``exact``
    itself, when given)."""
    forgeries = mutants(payload, family)
    assert forgeries, f"no {family} forgery of a {len(payload)}-byte payload"
    escapes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # forged codes overflow casts
        for label, forgery in forgeries:
            try:
                decoded = decode(forgery)
            except error:
                continue
            except Exception as escape:  # the failure this test exists to report
                escapes.append(f"{label}: {type(escape).__name__}: {escape}")
                continue
            if not isinstance(decoded, kind):
                escapes.append(f"{label}: decoded to a {type(decoded).__name__}")
            elif exact is not None and decoded != exact:
                escapes.append(f"{label}: decoded to {len(decoded)} other bytes")
    assert not escapes, f"{len(escapes)} of {len(forgeries)} escape, e.g. " + "; ".join(escapes[:3])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", LOSSY_SEEDS)
@pytest.mark.parametrize("codec_name", CODECS)
def test_lossy_codec_fails_closed(codec_name, seed, family):
    make, mode, bound = LOSSY_SEEDS[seed]
    codec = CODECS[codec_name]()
    payload = codec.compress(make(), bound, ErrorBoundMode[mode])
    _sweep(payload, family, codec.decompress, np.ndarray)


def _params_length_off_by(delta: int) -> Callable[[bytes], bytes]:
    """The params length ``delta`` bytes off the section's end (the params are its tail)."""

    def forge(meta: bytes) -> bytes:
        start = meta.index(b'{"')
        (declared,) = struct.unpack_from("<I", meta, start - 4)
        assert declared == len(meta) - start
        return meta[: start - 4] + struct.pack("<I", declared + delta) + meta[start:]

    return forge


STAGE_META_FORGERIES = {
    "overlong-params-length": _params_length_off_by(1),
    "short-params-length": _params_length_off_by(-1),
    "trailing-junk": lambda meta: meta + b"\x00junk",
}


@pytest.mark.parametrize("forgery", STAGE_META_FORGERIES)
@pytest.mark.parametrize("codec_name", CODECS)
def test_stage_metadata_must_end_where_its_params_end(codec_name, forgery):
    """A params length that ran past the section used to be clamped, and bytes
    after the params were ignored: both payloads decoded.  A short length cut
    the params JSON and failed only in its parser."""
    codec = CODECS[codec_name]()
    sections = unpack_sections(codec.compress(weights(600, "float32"), 1e-2))
    sections["meta"] = STAGE_META_FORGERIES[forgery](sections["meta"])
    with pytest.raises(CorruptPayloadError, match="params bytes"):
        codec.decompress(pack_sections(sections))


@pytest.fixture(scope="module")
def state_dict():
    """One lossy tensor (1,152 values) and two lossless ones, an int among them."""
    return {
        "conv.weight": weights(1152, "float32").reshape(16, 8, 3, 3),
        "conv.bias": weights(16, "float32"),
        "bn.num_batches_tracked": np.array(3, dtype=np.int64),
    }


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "lossy, lossless", FEDSZ_BACKENDS, ids=[f"{a}+{b}" for a, b in FEDSZ_BACKENDS]
)
def test_fedsz_container_fails_closed(state_dict, lossy, lossless, family):
    codec = FedSZCompressor(error_bound=1e-2, lossy_compressor=lossy, lossless_compressor=lossless)
    _sweep(codec.compress(state_dict), family, codec.decompress, dict)


@pytest.mark.parametrize("family", BYTE_FAMILIES)
@pytest.mark.parametrize("seed", ["weights", "empty"])
@pytest.mark.parametrize("codec_name", available_lossless_compressors())
def test_lossless_codec_fails_closed(codec_name, seed, family):
    """A lossless forgery raises or decodes to exactly the original bytes."""
    codec = get_lossless_compressor(codec_name)
    raw = weights(300, "float32").tobytes() if seed == "weights" else b""
    _sweep(codec.compress(raw), family, codec.decompress, bytes, exact=raw)


def _checkpoint() -> RunCheckpoint:
    """A small snapshot with every section a real one has."""
    return RunCheckpoint(
        rounds_completed=2,
        config={"num_clients": 2, "rounds": 4, "batch_size": 16, "seed": 3},
        scheduler={"kind": "sync"},
        schedule=None,
        transport={"uplink": {"bandwidth_mbps": 10.0}},
        sampling_rng={"bit_generator": "PCG64", "state": {"state": 7, "inc": 9}},
        link_rngs={"0": {"bit_generator": "PCG64", "state": {"state": 1, "inc": 3}}},
        clients={"0": {"rounds_trained": 2}, "1": {"rounds_trained": 1}},
        codec=None,
        codec_fingerprint={"type": "FedSZCompressor", "params": {"error_bound": 0.01}},
        history_rows=[{"round": 1, "accuracy": 0.25}, {"round": 2, "accuracy": 0.5}],
        model_state={
            "fc.weight": weights(32, "float32").reshape(4, 8),
            "fc.bias": np.zeros(4, dtype=np.float32),
        },
    )


@pytest.mark.parametrize("family", BYTE_FAMILIES)
def test_checkpoint_with_a_stale_checksum_fails_closed(family):
    blob = _checkpoint().to_bytes()
    _sweep(blob, family, RunCheckpoint.from_bytes, RunCheckpoint, CheckpointError)


@pytest.mark.parametrize("family", FAMILIES)
def test_checkpoint_with_a_forged_checksum_fails_closed(family):
    """The frame's CRC catches torn writes, not forgeries: recompute it for each."""
    payload = unframe_checksummed(CHECKPOINT_MAGIC, _checkpoint().to_bytes())

    def decode(forgery: bytes) -> RunCheckpoint:
        return RunCheckpoint.from_bytes(frame_checksummed(CHECKPOINT_MAGIC, forgery))

    _sweep(payload, family, decode, RunCheckpoint, CheckpointError)


def test_the_mutator_reads_back_every_payload_it_forges_from(state_dict):
    """``splice`` rebuilds streams through ``parse``/``serialize``; both must be
    exact on the nested framing, or every splice forgery is of another payload."""
    payloads = [
        FedSZCompressor(error_bound=1e-2).compress(state_dict),
        unframe_checksummed(CHECKPOINT_MAGIC, _checkpoint().to_bytes()),
    ]
    for codec in CODECS.values():
        payloads.append(codec().compress(weights(600, "float32"), 1e-2))
    for payload in payloads:
        assert isinstance(parse(payload), list)
        assert serialize(parse(payload)) == payload
