"""Byte-size helpers.

FedSZ's evaluation is all about sizes: state-dict bytes before and after
compression, bandwidth in megabits per second, and human-readable reporting of
both.  The helpers here centralise those conversions.
"""

from __future__ import annotations

#: Bytes per unit for the binary prefixes used in reports.
_BINARY_UNITS = ("B", "KiB", "MiB", "GiB", "TiB")

#: Bits per megabit, used when converting bandwidths expressed in Mbps.
BITS_PER_MEGABIT = 1_000_000


def format_bytes(num_bytes: float, precision: int = 2) -> str:
    """Format a byte count with binary prefixes, e.g. ``'230.00 MiB'``."""
    if num_bytes < 0:
        raise ValueError(f"byte count must be non-negative, got {num_bytes}")
    value = float(num_bytes)
    for unit in _BINARY_UNITS:
        if value < 1024.0 or unit == _BINARY_UNITS[-1]:
            return f"{value:.{precision}f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def megabits_per_second_to_bytes_per_second(mbps: float) -> float:
    """Convert a bandwidth in Mbps (network convention, 10^6) to bytes/s."""
    if mbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {mbps} Mbps")
    return mbps * BITS_PER_MEGABIT / 8.0
