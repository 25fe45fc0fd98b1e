"""Bit-level helpers shared by the codecs.

:func:`pack_bit_flags` / :func:`unpack_bit_flags` are the one-bit-per-block
sections of the SZ2 (predictor mode) and SZx (constant block) codecs.  No
codec packs wider fields through here: SZx bit-packs its fields a lane at a
time (``szx._pack_fields``) and ZFP hands integer coefficients to the entropy
stage.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.compression.errors import CorruptPayloadError


def pack_bit_flags(flags: Iterable[bool]) -> bytes:
    """Pack a sequence of booleans into bytes (MSB-first within each byte)."""
    if not isinstance(flags, (np.ndarray, list, tuple)):
        flags = list(flags)
    array = (np.asarray(flags) != 0).astype(np.uint8)
    return np.packbits(array).tobytes()


def unpack_bit_flags(payload: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bit_flags`, returning a boolean array of ``count``."""
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    if bits.size < count:
        raise CorruptPayloadError(
            f"bit-flag payload holds {bits.size} bits, expected at least {count}"
        )
    return bits[:count].astype(bool)
