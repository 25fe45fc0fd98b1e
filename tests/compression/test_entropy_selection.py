"""The entropy stage's data-driven choice, pinned against the previous coder.

``encode_indices`` deflates with run-length + Huffman coding and retries with
the LZ77 match search only when that fast pass lands under ~2 bits per byte
(see :mod:`repro.compression.entropy`).  The rule must win on what FedSZ ships
— noise-like weight residuals — without giving the ratio away on traffic that
is not weights.  The constants are payload bytes the commit before the change
(level-6 DEFLATE over interleaved codes, always) produced for the very same
arrays, so every ratio below is new/old on identical quantization codes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import SZ2Compressor, SZ3Compressor
from repro.compression.base import unpack_sections

SIZE = 1_000_000


def _smooth_field() -> np.ndarray:
    """The ``smooth_field`` fixture of ``tests/conftest.py`` (20k points)."""
    rng = np.random.default_rng(42)
    x = np.linspace(0.0, 8.0 * np.pi, 20_000)
    signal = np.sin(x) + 0.3 * np.sin(3.1 * x) + 0.002 * rng.normal(0.0, 1.0, x.size)
    return signal.astype(np.float32)


def _sine() -> np.ndarray:
    return np.sin(np.linspace(0.0, 8.0 * np.pi, SIZE)).astype(np.float32)


def _ramp() -> np.ndarray:
    return np.linspace(0.0, 1.0, SIZE, dtype=np.float32)


def _sparse() -> np.ndarray:
    """1% of the entries non-zero."""
    rng = np.random.default_rng(5)
    values = np.zeros(SIZE, dtype=np.float32)
    hot = rng.choice(SIZE, SIZE // 100, replace=False)
    values[hot] = rng.normal(0.0, 1.0, hot.size).astype(np.float32)
    return values


def _steps() -> np.ndarray:
    """Piecewise constant, 250 values a step."""
    rng = np.random.default_rng(6)
    return np.repeat(rng.normal(0.0, 1.0, SIZE // 250), 250).astype(np.float32)


def _weights() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.normal(0.0, 0.02, SIZE).astype(np.float32)


DATASETS = {
    "smooth_field": _smooth_field,
    "sine": _sine,
    "ramp": _ramp,
    "sparse": _sparse,
    "steps": _steps,
    "weights": _weights,
}
CODECS = {"sz2": SZ2Compressor, "sz3": SZ3Compressor}

#: (dataset, codec, REL bound) -> (payload bytes, entropy-body bytes) before.
PREVIOUS_NBYTES = {
    ("smooth_field", "sz2", 1e-2): (1379, 1208),
    ("smooth_field", "sz2", 1e-3): (5902, 5683),
    ("smooth_field", "sz3", 1e-2): (596, 501),
    ("smooth_field", "sz3", 1e-3): (5783, 5688),
    ("sine", "sz2", 1e-2): (7986, 7336),
    ("sine", "sz2", 1e-3): (27906, 27256),
    ("sine", "sz3", 1e-2): (1209, 1114),
    ("sine", "sz3", 1e-3): (2261, 2166),
    ("ramp", "sz2", 1e-2): (5450, 4800),
    ("ramp", "sz2", 1e-3): (12655, 12005),
    ("ramp", "sz3", 1e-2): (1113, 1018),
    ("ramp", "sz3", 1e-3): (2085, 1990),
    ("sparse", "sz2", 1e-2): (29107, 28457),
    ("sparse", "sz2", 1e-3): (50532, 49882),
    ("sparse", "sz3", 1e-2): (51105, 51010),
    ("sparse", "sz3", 1e-3): (89697, 89602),
    ("steps", "sz2", 1e-2): (24607, 23957),
    ("steps", "sz2", 1e-3): (33950, 33300),
    ("steps", "sz3", 1e-2): (64180, 64085),
    ("steps", "sz3", 1e-3): (120253, 120158),
    ("weights", "sz2", 1e-2): (654615, 623109),
    ("weights", "sz2", 1e-3): (1333507, 1301881),
    ("weights", "sz3", 1e-2): (654731, 654636),
    ("weights", "sz3", 1e-3): (1350175, 1350080),
}


@pytest.fixture(scope="module")
def nbytes():
    """(payload bytes, entropy-body bytes) of every pinned case, computed once."""
    measured = {}
    arrays = {name: make() for name, make in DATASETS.items()}
    for dataset, codec, bound in PREVIOUS_NBYTES:
        payload = CODECS[codec]().compress(arrays[dataset], bound)
        measured[dataset, codec, bound] = (len(payload), len(unpack_sections(payload)["codes"]))
    return measured


NON_WEIGHT_CASES = [case for case in PREVIOUS_NBYTES if case[0] != "weights"]
WEIGHT_CASES = [case for case in PREVIOUS_NBYTES if case[0] == "weights"]


def _case_id(case) -> str:
    return "{}-{}-{:g}".format(*case)


@pytest.mark.parametrize("case", NON_WEIGHT_CASES, ids=_case_id)
def test_non_weight_traffic_stays_close_to_the_match_search(case, nbytes):
    """Measured 0.75-1.35x: structured streams the rule does not retry (above
    2 bits a byte after run-length coding) may lose up to a third; none more."""
    assert nbytes[case][0] <= 1.4 * PREVIOUS_NBYTES[case][0]


@pytest.mark.parametrize("dataset", ["sine", "ramp"])
@pytest.mark.parametrize("codec", sorted(CODECS))
def test_run_dominated_streams_take_the_match_search(dataset, codec, nbytes):
    """Huffman-only coding is 20x+ larger than level 6 on these two; the retry
    must bring them back to the previous size (measured 0.99-1.00x)."""
    case = (dataset, codec, 1e-2)
    assert nbytes[case][0] <= 1.02 * PREVIOUS_NBYTES[case][0]


@pytest.mark.parametrize("case", WEIGHT_CASES, ids=_case_id)
def test_weight_like_bodies_shrink(case, nbytes):
    """At least 8% smaller; measured sz2 -10.1% / -11.7% and sz3 -7.5% / -13.1%
    at REL 1e-2 / 1e-3, so sz3 at 1e-2 is held to 7%."""
    floor = 0.93 if case == ("weights", "sz3", 1e-2) else 0.92
    assert nbytes[case][1] <= floor * PREVIOUS_NBYTES[case][1]
