"""Shared utilities used across the FedSZ reproduction.

The helpers in this package are intentionally small and dependency-free:
deterministic seeding, byte-size formatting and simple wall-clock timers.
They are used by the compression substrate, the neural-network substrate and
the federated-learning runtime alike.
"""

from repro.utils.seeding import SeedSequenceFactory, default_rng, set_global_seed
from repro.utils.sizes import format_bytes
from repro.utils.timing import Timer, timed

__all__ = [
    "SeedSequenceFactory",
    "default_rng",
    "set_global_seed",
    "format_bytes",
    "Timer",
    "timed",
]
