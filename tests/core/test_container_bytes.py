"""The FedSZ container's bytes, pinned whole.

``tests/golden/`` pins each codec's per-tensor payloads; this file pins what
wraps them: the section framing, the JSON header, the per-tensor stage
metadata, the lossless partition's named-array serialization and the blob
that carries it.  Each row is the sha256 of a ``FedSZCompressor(sz2, REL
1e-2)`` payload and of the arrays it decodes to, for the seed-11 tiny models
the FL workloads train and for one mixed dict whose tensors reach every
branch of the named-array framing (a 0-d integer buffer, float16 and float64
tensors, non-contiguous views, an empty tensor and non-ASCII names), plus the
``serialize_named_arrays`` / ``IdentityCodec`` bytes of that dict.

A change to the framing's code must leave every row as it is.  A change meant
to move these bytes re-records the rows here and states the move in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping

import numpy as np
import pytest

from repro.core import FedSZCompressor, deserialize_named_arrays, serialize_named_arrays
from repro.core.fedsz import IdentityCodec
from repro.nn.models import create_model

PINS = {
    "mobilenetv2": (
        "a81000e349e62303b951177310cf8ddabbc8292a845b94a5d7b7231f24b4df05",
        "69da063c74fd6237c3c7017085f16822deef571387a45efd20fb063722fd148c",
    ),
    "alexnet": (
        "06b6eccf75b2817c10c632bcd9605b9dc211277600a3a01c8e91e70b98e2b851",
        "92b3be9121aadbac65940b38d80edf195c1785e4bf090a8ac2daea5742468592",
    ),
    "resnet18": (
        "3159eb8ae0697c675d89561b42b8af62ca2b99be004c0a381ed8ced977d4ce27",
        "45b7d4838f34ccf2ccea3f9bb990752be79fdde68f67640bc7786527275c0554",
    ),
    "mixed": (
        "9fd992087b1c38bcc6592ce3e91b1b20ac7f8e3750a267eaeaa9671df0459d20",
        "818b16742a284fbe56f8694021af74c0510d579a584169603a6059e24240e45d",
    ),
}
MIXED_SERIALIZED = "0f107c6cb266951e50d93745a19e1f7551ec9831e0148eedb5671f2d390ace22"


def mixed_state() -> Dict[str, np.ndarray]:
    """One dict with every kind of entry the named-array framing meets."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal((48, 40)).astype(np.float32)
    return {
        "encoder.weight": rng.standard_normal((64, 40)).astype(np.float16),
        "decoder.weight": rng.standard_normal((40, 50)),
        "transposed.weight": base.T,
        "strided.bias": base[::3, ::4],
        "bn.num_batches_tracked": np.array(7, dtype=np.int64),
        "empty.weight": np.zeros((0, 3), dtype=np.float32),
        "слой.weight": rng.standard_normal((30, 50)).astype(np.float32),
        "couche.échelle": rng.standard_normal(5).astype(np.float16),
        "mask": np.arange(6, dtype=np.uint8).reshape(2, 3) % 2 == 0,
    }


def state(name: str) -> Dict[str, np.ndarray]:
    if name == "mixed":
        return mixed_state()
    return create_model(name, "tiny", seed=11).state_dict()


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def arrays_sha256(arrays: Mapping[str, np.ndarray]) -> str:
    """Digest of every name, dtype, shape and byte, in the mapping's order."""
    digest = hashlib.sha256()
    for name, array in arrays.items():
        array = np.asarray(array)
        digest.update(name.encode("utf-8"))
        digest.update(array.dtype.str.encode("ascii"))
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_fedsz_container_bytes_and_decode(name):
    codec = FedSZCompressor(error_bound=1e-2, lossy_compressor="sz2")
    payload = codec.compress(state(name))
    decoded = codec.decompress(payload)
    assert (sha256(payload), arrays_sha256(decoded)) == PINS[name]


def test_mixed_dict_named_array_bytes():
    arrays = mixed_state()
    serialized = serialize_named_arrays(arrays)
    assert sha256(serialized) == MIXED_SERIALIZED
    identity = IdentityCodec()
    assert identity.compress(arrays) == serialized
    restored = identity.decompress(serialized)
    assert arrays_sha256(restored) == arrays_sha256(arrays)
    assert arrays_sha256(deserialize_named_arrays(serialized)) == arrays_sha256(arrays)
