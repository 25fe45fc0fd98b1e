"""Construction-time checks shared by the codec and federated configs."""

from __future__ import annotations

import operator


def require_count(name: str, value, minimum: int = 1) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (``operator.index`` accepts it) of at least ``minimum`` (0 or 1)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(
            f"{name} must be {'positive' if minimum else 'non-negative'}, got {value}"
        )
