"""The vectorised flag packer must be bit-identical to its scalar reference.

``pack_bit_flags`` replaced a per-flag generator; this pins it against the
pre-vectorization implementation kept in ``tests/_reference/bitstream.py``
for every input kind it accepts.
"""

from __future__ import annotations

import numpy as np
import pytest
from _reference.bitstream import reference_pack_bit_flags

from repro.compression.bitstream import pack_bit_flags


def test_pack_bit_flags_matches_reference_for_all_input_kinds():
    rng = np.random.default_rng(4)
    flags = rng.random(1000) < 0.4
    expected = reference_pack_bit_flags(flags.tolist())
    assert pack_bit_flags(flags) == expected  # ndarray fast path
    assert pack_bit_flags(flags.tolist()) == expected  # list
    assert pack_bit_flags(tuple(flags.tolist())) == expected  # tuple
    assert pack_bit_flags(bool(flag) for flag in flags) == expected  # generator
    assert pack_bit_flags([]) == reference_pack_bit_flags([]) == b""


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000])
def test_pack_bit_flags_matches_reference_at_byte_boundaries(count):
    flags = np.random.default_rng(count).random(count) < 0.5
    expected = reference_pack_bit_flags(flags.tolist())
    assert pack_bit_flags(flags) == expected
    assert pack_bit_flags(flags.astype(np.uint8)) == expected  # 0/1 integers
