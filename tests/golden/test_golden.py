"""The golden corpus: every payload byte the codecs put on the wire, pinned in one table.

``payloads.json`` holds one row per case of ``cases.py`` (codec x dtype x
mode x bound x shape case, with the codec option and slab setting where a
boundary needs them): the digest of the payloads and the digest of the
reconstruction.  A row must match today's codec; a group case must also equal
its tensors coded one at a time; and every case must decode bit for bit, sign
of zero included, to what the frozen pre-stage codec of
``tests/_reference/codecs.py`` gives, which has no slab.  The bytes depend on the zlib build,
which the table's header records.

``v3/`` holds payloads of ``STAGED_FORMAT_VERSION = 3`` (one per codec x
dtype, a FedSZ state-dict container and the entropy bodies of the format
before byte planes), each with the digest it must keep decoding to.

To re-pin after a change that is meant to move bytes: run
``PYTHONPATH=src python tests/golden/regen.py``, which rewrites the table and
prints the added, removed and changed keys; review ``git diff``; and state the
move once in CHANGES.md.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from _reference.codecs import (
    ReferenceSZ2Compressor,
    ReferenceSZ3Compressor,
    ReferenceSZxCompressor,
    ReferenceZFPCompressor,
)
from golden.cases import CASES, CODECS, TABLE, array_digest, row, run, slab_setting
from repro.compression import ErrorBoundMode
from repro.compression.entropy import decode_indices
from repro.core import FedSZCompressor

RECORDED = json.loads(TABLE.read_text())
REFERENCES = {
    "sz2": ReferenceSZ2Compressor,
    "sz3": ReferenceSZ3Compressor,
    "szx": ReferenceSZxCompressor,
    "zfp": ReferenceZFPCompressor,
}
V3 = Path(__file__).with_name("v3")
V3_DIGESTS = json.loads((V3 / "digests.json").read_text())


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    return (left.dtype, left.shape, left.tobytes()) == (right.dtype, right.shape, right.tobytes())


KEYS = sorted(CASES.keys() | RECORDED["rows"].keys())


@pytest.mark.parametrize("key", KEYS)
def test_payload_bytes_are_pinned(key):
    assert key in CASES and key in RECORDED["rows"], f"cases and table disagree, run regen.py: {key}"
    case = CASES[key]
    tensors, payloads, restored = run(case)
    assert row(payloads, restored) == RECORDED["rows"][key], (
        f"row moved (recorded with zlib {RECORDED['zlib']}, running {zlib.ZLIB_RUNTIME_VERSION})"
    )
    mode = ErrorBoundMode[case.mode]
    if case.group:
        codec = case.codec_instance()
        with slab_setting(case):
            alone = [codec.compress(tensor, case.bound, mode) for tensor in tensors]
            assert payloads == alone
            assert all(map(_same_bits, restored, map(codec.decompress, payloads)))
    reference = REFERENCES[case.codec](**dict(case.options))
    for tensor, got in zip(tensors, restored, strict=True):
        expected = reference.decompress(reference.compress(tensor, case.bound, mode))
        assert _same_bits(got, expected)


def _decode_v3(name: str, payload: bytes):
    kind = name.split("-")[0]
    if kind == "entropy":
        return [decode_indices(payload)]
    if kind == "fedsz":
        state = FedSZCompressor().decompress(payload)
        return [state[tensor] for tensor in sorted(state)]
    return [CODECS[kind]().decompress(payload)]


@pytest.mark.parametrize("name", sorted(V3_DIGESTS))
def test_version_3_payloads_still_decode(name, inflate_backend):
    restored = _decode_v3(name, (V3 / name).read_bytes())
    assert array_digest(restored) == V3_DIGESTS[name]["reconstruction"]
