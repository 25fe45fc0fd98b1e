"""The golden corpus's inputs: every codec call whose payload bytes are pinned.

One row of ``payloads.json`` is one :class:`Case`: a codec, with any
non-default option, coding one tensor (or one group of tensors, through
``compress_group``) at one dtype, mode and bound.  The key says all of it:
``codec/dtype/mode/bound/shape case[/option=value][/slab setting]``.  The slab
setting is ``slab=real``, or the values the codec module's slab constants are
shrunk to for the call (``run=`` too for SZ2, whose run limit is shrunk with
its slab), so that a few thousand values cross the boundaries a real slab puts
16K values apart.  Each setting walks only the sizes cut for it: block-sized
tensors and sizes around 2^16 and 2^18 at the real slab, sizes around a slab
of a few blocks at a shrunk one.

:func:`run` codes a case and :func:`row` digests what it gave, for
``test_golden.py`` and ``regen.py`` alike.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.compression import (
    ErrorBoundMode,
    SZ2Compressor,
    SZ3Compressor,
    SZxCompressor,
    ZFPCompressor,
    sz2,
    szx,
    zfp,
)
from repro.nn.models import create_model

TABLE = Path(__file__).with_name("payloads.json")
CODECS = {"sz2": SZ2Compressor, "sz3": SZ3Compressor, "szx": SZxCompressor, "zfp": ZFPCompressor}
#: The codec modules with slab constants; only their keys carry a slab setting.
SLAB_MODULES = {"sz2": sz2, "szx": szx, "zfp": zfp}
DTYPES = ("float16", "float32", "float64")
#: The real slab and SZ2 run limit the real-slab sizes were cut for (they
#: need not follow a retuned constant).
REAL_SLAB = 1 << 16
REAL_RUN = 1 << 18


@dataclass(frozen=True)
class Case:
    codec: str
    dtype: str
    mode: str
    bound: float
    shape: str
    tensors: Callable[[], List[np.ndarray]] = field(repr=False)
    options: Tuple[Tuple[str, object], ...] = ()
    #: ``(module constant, values)`` patched for the call; empty at the real slab.
    shrink: Tuple[Tuple[str, int], ...] = ()
    group: bool = False

    @property
    def key(self) -> str:
        parts = [self.codec, self.dtype, self.mode, f"{self.bound:g}", self.shape]
        parts += [f"{name}={value}" for name, value in self.options]
        if self.codec in SLAB_MODULES:
            # ``_RUN_ELEMENTS`` -> ``run=``, ``_SLAB_ELEMENTS`` -> ``slab=``
            shrunk = [f"{name.split('_')[1].lower()}={values}" for name, values in self.shrink]
            parts.append(",".join(shrunk) or "slab=real")
        return "/".join(parts)

    def codec_instance(self):
        return CODECS[self.codec](**dict(self.options))


@contextmanager
def slab_setting(case: Case) -> Iterator[None]:
    """Shrink the case's slab constants for the duration of the block."""
    module = SLAB_MODULES.get(case.codec)
    saved = {name: getattr(module, name) for name, _ in case.shrink}
    try:
        for name, values in case.shrink:
            setattr(module, name, values)
        yield
    finally:
        for name, values in saved.items():
            setattr(module, name, values)


def run(case: Case) -> Tuple[List[np.ndarray], List[bytes], List[np.ndarray]]:
    """``(tensors, payloads, reconstructions)`` of the case at its slab setting."""
    codec, tensors = case.codec_instance(), case.tensors()
    with slab_setting(case):
        payloads = codec.compress_group(tensors, case.bound, ErrorBoundMode[case.mode])
        return tensors, payloads, codec.decompress_group(payloads)


def digest(chunks) -> str:
    """First 16 hex characters of the SHA-256 of length-prefixed ``chunks``."""
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(len(chunk).to_bytes(8, "little"))
        sha.update(chunk)
    return sha.hexdigest()[:16]


def array_digest(arrays: Sequence[np.ndarray]) -> str:
    """Digest of dtype, shape and bytes: ``-0.0`` is not ``0.0`` here."""
    return digest(f"{a.dtype.str}{a.shape}".encode() + a.tobytes() for a in arrays)


def row(payloads: Sequence[bytes], restored: Sequence[np.ndarray]) -> Dict[str, str]:
    return {"payload": digest(payloads), "reconstruction": array_digest(restored)}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def weights(size: int, dtype="float64") -> np.ndarray:
    """Weight-like noise with sparse outliers, then a smooth ramp and a run of
    zeros: SZ2 codes blocks of both modes, SZx constant blocks, ZFP zero blocks."""
    return _weights_float64(size).astype(dtype)  # a copy, whatever the dtype


@lru_cache(maxsize=None)  # the grid codes each size at many dtypes and bounds
def _weights_float64(size: int) -> np.ndarray:
    rng = np.random.default_rng(size)
    values = rng.normal(0.0, 0.02, size)
    outliers = rng.choice(size, -(-size // 150), replace=False)
    values[outliers] = rng.uniform(-0.9, 0.9, outliers.size)
    values[size // 4 : size // 2] = np.linspace(-0.05, 0.05, size // 2 - size // 4)
    values[size // 2 : 2 * size // 3] = 0.0
    return values


def slabwise_mixed(blocks_per_slab: int, block: int = 256) -> np.ndarray:
    """Six slabs, each with its own share of blocks that are one period of a
    sine (Lorenzo wins) among noise (regression wins): SZ2's majority mode
    flips from slab to slab, in both directions."""
    shares = [0.25, 0.75, 0.0, 1.0, 0.75, 0.25]
    rng = np.random.default_rng(len(shares) * blocks_per_slab)
    blocks = blocks_per_slab * len(shares)
    phase = np.linspace(0.0, 2.0 * np.pi, block, endpoint=False) + rng.uniform(size=(blocks, 1))
    smooth = 0.05 * np.sin(phase) + rng.normal(0.0, 0.3, size=(blocks, 1))
    rough = rng.normal(0.0, 0.3, (blocks, block))
    threshold = np.repeat(np.asarray(shares, dtype=np.float64), blocks_per_slab)
    pick = (np.arange(blocks) % blocks_per_slab) < threshold * blocks_per_slab
    return np.where(pick[:, None], smooth, rough).astype(np.float32).ravel()


def wide_tail(slab: int, run: int) -> np.ndarray:
    """At least three slabs, over the run limit so they walk as slabs, whose
    last five values alone need 64-bit codes at ABS 2e-4 (1e7 / 2e-4 >= 2^30)."""
    slabs = max(3, -(-run // slab))
    data = np.random.default_rng(42).normal(0.0, 1.0, slabs * slab + 7)
    data[-5:] = 1e7
    return data


def noise(size: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, 0.02, size)


def group_members(block: int = 256, run_blocks: int = 8):
    """``(label, float64 tensor)`` pairs built to land on every edge of SZ2's
    group walk at a run limit of ``run_blocks`` blocks; the labels say which."""
    limit = run_blocks * block
    sizes = [
        ("one-value", 1), ("block-1", block - 1), ("block", block), ("block+1", block + 1),
        ("fills-slab", 3 * block),  # 1 + 1 + 1 + 2 + 3 blocks: the run limit exactly
        ("fills-slab-a", 3 * block), ("fills-slab-b", 5 * block),  # and again, in two
        ("overflows-a", 3 * block), ("overflows-b", 5 * block + 1),  # one value too many
        ("before-big", block), ("big", 2 * limit + 7), ("after-big", block),
    ]
    members = [(label, noise(size, seed)) for seed, (label, size) in enumerate(sizes)]
    members += [
        ("constant", np.full(2 * block, 0.25)),  # raw fallback inside a run
        ("after-constant", noise(block + 3, 100)),
        ("empty", np.zeros(0)),  # raw fallback, no blocks at all
        ("smooth", np.linspace(-0.05, 0.05, 3 * block)),  # int8 codes at any bound
        ("noisy", 10.0 * noise(3 * block, 101)),  # int16 codes at REL 1e-4, next to int8
    ]
    return members


#: 30K + 40K crosses SZ2's old 2^16-value run limit, 100K + 90K + 80K the
#: 2^18 one, then exactly 2^18, one value over it (a lone tensor in slabs), a
#: 5-value tensor and a 70K one.
RUN_LIMIT_MIX = [30_000, 40_000, 100_000, 90_000, 80_000, 1 << 18, (1 << 18) + 1, 5, 70_000]


def run_limit_input(name: str, dtype: str) -> List[np.ndarray]:
    if name == "run-limit-mix":
        return [noise(size, seed).astype(dtype) for seed, size in enumerate(RUN_LIMIT_MIX)]
    state = create_model(name.removesuffix("-tiny"), "tiny", seed=0).state_dict()
    return [  # its float tensors of at least 1,024 values: the lossy partition
        np.asarray(value, dtype=dtype).ravel()
        for value in state.values()
        if np.issubdtype(np.asarray(value).dtype, np.floating) and np.asarray(value).size >= 1024
    ]


#: SZx's tensors the grid misses: ``name -> (dtype, mode, bound)``.
SZX_SPECIALS = {
    "all-constant": ("float32", "ABS", 1e-3),
    "mixed-in-one-slab": ("float32", "REL", 1e-2),
    "widths-over-16": ("float32", "ABS", 1e-6),
    "widths-over-32": ("float64", "ABS", 1e-12),
    "wider-from-the-third-slab": ("float32", "ABS", 1e-3),
    "zero-deviations-below-the-mean": ("float64", "REL", 1e-3),
}


def szx_special(name: str) -> np.ndarray:
    rng = np.random.default_rng(24)
    if name == "all-constant":  # not one value block; a negative-zero mean among them
        data = np.repeat(rng.normal(0.0, 1.0, 40), 128)
        data[:128] = -0.0
    elif name == "mixed-in-one-slab":  # constant and value blocks alternate inside a slab
        data = rng.normal(0.0, 0.02, (64, 128))
        data[::2] = 0.01
    elif name in ("widths-over-16", "widths-over-32"):  # uint32 / uint64 codes
        data = rng.normal(0.0, 1.0, 5000)
    elif name == "wider-from-the-third-slab":  # the codes are widened once, late
        data = rng.normal(0.0, 0.02, 5 * REAL_SLAB + 77)
        data[2 * REAL_SLAB + 5 :: 1000] = 40.0
    else:  # sign set on magnitude 0: -0.0 + mean
        data = np.tile(np.array([-1e-9, 0.0, 1e-9, 0.5]), 300) * 1e-200
    return data.astype(SZX_SPECIALS[name][0]).ravel()


#: The staged-codec edge inputs, by shape case.
EDGES = {
    "empty": lambda dtype: np.array([], dtype=dtype),  # raw section
    "scalar": lambda dtype: np.array(0.5, dtype=dtype),  # 0-d
    "constant-4096": lambda dtype: np.full(4096, 0.125, dtype=dtype),  # zero REL range
    "sub-block": lambda dtype: np.array([0.5, -0.25, 0.75], dtype=dtype),
    "weights-20x10x30": lambda dtype: weights(6000, dtype).reshape(20, 10, 30),
    "zeros-64": lambda dtype: np.zeros(64, dtype=dtype),  # ZFP's zero exponents
    "wide-exponents": lambda dtype: weights(5001, dtype) * np.logspace(-200, 200, 5001),
}


# ----------------------------------------------------------------------
# The grid
# ----------------------------------------------------------------------
def _listed(make: Callable[..., np.ndarray], *args) -> List[np.ndarray]:
    return [make(*args)]


def _weights(size: int, dtype: str):
    return partial(_listed, weights, size, dtype)


def _edge(name: str, dtype: str):
    return partial(_listed, EDGES[name], dtype)


def _slab_grid(codec, dtypes, bounds, options, real_sizes, small_sizes, shrink):
    """``weights(size)`` at every dtype and bound: the real-slab sizes at the
    real slab, the small ones with the slab constants shrunk to ``shrink``."""
    for dtype in dtypes:
        for mode, bound in bounds:
            for sizes, setting in ((real_sizes, ()), (small_sizes, shrink)):
                for size in sorted(set(sizes)):
                    shape, tensors = f"weights-{size}", _weights(size, dtype)
                    yield Case(codec, dtype, mode, bound, shape, tensors, options, setting)


def _sz2_shrunk(values: int):
    return (("_RUN_ELEMENTS", values), ("_SLAB_ELEMENTS", values))


def _sz2_cases() -> Iterator[Case]:
    real_sizes = [REAL_SLAB - 1, REAL_SLAB, REAL_SLAB + 1, 3 * REAL_SLAB + 7]
    real_sizes += [REAL_RUN, REAL_RUN + 1]
    bounds = (("REL", 1e-2), ("ABS", 2e-4))
    for block in (4, 256):
        small = 4 * block
        yield from _slab_grid(
            "sz2", ("float32", "float64"), bounds, (("block_size", block),),
            [1, block - 1, block, block + 1, *real_sizes],
            [small - 1, small, small + 1, 3 * small + 7], _sz2_shrunk(small),
        )  # fmt: skip
    options = (("block_size", 256),)
    for per_slab, shrink in ((REAL_SLAB // 256, ()), (4, _sz2_shrunk(1024))):
        tensors = partial(_listed, slabwise_mixed, per_slab)
        yield Case("sz2", "float32", "REL", 1e-3, "slabwise-mixed", tensors, options, shrink)
        run_limit = dict(shrink).get("_RUN_ELEMENTS", REAL_RUN)
        tensors = partial(_listed, wide_tail, per_slab * 256, run_limit)
        yield Case("sz2", "float64", "ABS", 2e-4, "wide-tail", tensors, options, shrink)
    for name in ("alexnet-tiny", "mobilenetv2-tiny", "run-limit-mix"):
        for dtype in ("float32", "float64"):
            for mode, bound in (("REL", 1e-2), ("REL", 1e-3), ("ABS", 1e-3)):
                tensors = partial(run_limit_input, name, dtype)
                yield Case("sz2", dtype, mode, bound, name, tensors, group=True)


def _szx_cases() -> Iterator[Case]:
    bounds = [(mode, bound) for mode in ("REL", "ABS") for bound in (1e-1, 1e-2, 1e-4)]
    for block in (4, 64, 100, 128):
        real = max(8, REAL_SLAB // block // 8 * 8) * block  # szx._slab_blocks at the real slab
        small = 16 * block
        yield from _slab_grid(
            "szx", DTYPES, bounds, (("block_size", block),),
            [1, block - 1, block, block + 1, real, real + block, 3 * real + block + 7],
            [small, small + block, 3 * small + block + 7], (("_SLAB_ELEMENTS", small),),
        )  # fmt: skip
    shrink = (("_SLAB_ELEMENTS", 16 * 128),)
    for name, (dtype, mode, bound) in SZX_SPECIALS.items():
        tensors = partial(_listed, szx_special, name)
        yield Case("szx", dtype, mode, bound, name, tensors)
        if name in ("all-constant", "mixed-in-one-slab", "widths-over-16", "widths-over-32"):
            yield Case("szx", dtype, mode, bound, name, tensors, shrink=shrink)


def _zfp_cases() -> Iterator[Case]:
    small = 16 * 4
    yield from _slab_grid(
        "zfp", DTYPES, (("REL", 1e-2), ("REL", 1e-3), ("ABS", 1e-3)), (),
        [1, 2, 3, 4, 5, REAL_SLAB, REAL_SLAB + 1, 3 * REAL_SLAB + 7],
        [small, small + 1, 3 * small + 7], (("_SLAB_ELEMENTS", small),),
    )  # fmt: skip
    # The retained precision at both of its clamps, and an ABS bound near them.
    for dtype, mode, bound in (
        ("float64", "REL", 1e-12), ("float32", "REL", 0.9), ("float32", "ABS", 1e-7)
    ):
        yield Case("zfp", dtype, mode, bound, "weights-5001", _weights(5001, dtype))
    for name, dtype in (("zeros-64", "float32"), ("wide-exponents", "float64")):
        yield Case("zfp", dtype, "REL", 1e-2, name, _edge(name, dtype))


def _every_codec_cases() -> Iterator[Case]:
    for codec in CODECS:
        for dtype in DTYPES:
            for mode, bound in (("REL", 1e-1), ("REL", 1e-2), ("REL", 1e-3), ("ABS", 5e-3)):
                yield Case(codec, dtype, mode, bound, "weights-5001", _weights(5001, dtype))
        for dtype in ("float32", "float64"):
            for name in ("empty", "scalar", "constant-4096", "sub-block"):
                yield Case(codec, dtype, "REL", 1e-2, name, _edge(name, dtype))
        name = "weights-20x10x30"
        yield Case(codec, "float32", "REL", 1e-2, name, _edge(name, "float32"))
        # Group members, coded as one group; SZ2 at an eight-block run and a
        # two-block slab, so the list crosses many run and slab boundaries.
        shrink = (("_RUN_ELEMENTS", 8 * 256), ("_SLAB_ELEMENTS", 2 * 256)) if codec == "sz2" else ()
        for dtype in DTYPES:
            tensors = partial(_members_as, dtype)
            for mode in ("REL", "ABS"):
                for bound in (1e-1, 1e-2, 1e-4):
                    shape = "group-members"
                    yield Case(codec, dtype, mode, bound, shape, tensors, (), shrink, group=True)
    for codec, option in (
        ("sz2", ("block_size", 64)),
        ("sz3", ("use_cubic", False)),
        ("szx", ("block_size", 64)),
        ("zfp", ("compression_level", 1)),
    ):
        tensors = _weights(5001, "float32")
        yield Case(codec, "float32", "REL", 1e-2, "weights-5001", tensors, (option,))


def _members_as(dtype: str) -> List[np.ndarray]:
    return [tensor.astype(dtype) for _, tensor in group_members()]


def _cases() -> Dict[str, Case]:
    cases: Dict[str, Case] = {}
    for case in (*_sz2_cases(), *_szx_cases(), *_zfp_cases(), *_every_codec_cases()):
        assert case.key not in cases, f"two cases share the key {case.key}"
        cases[case.key] = case
    return cases


CASES = _cases()
