"""Pre-vectorization twin of :func:`repro.compression.bitstream.pack_bit_flags`."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def reference_pack_bit_flags(flags: Iterable[bool]) -> bytes:
    """Generator-expression ``np.fromiter`` flag packer (the pre-vectorization
    ``pack_bit_flags``)."""
    array = np.fromiter((1 if flag else 0 for flag in flags), dtype=np.uint8)
    return np.packbits(array).tobytes()
