"""Small shared helpers used across the package."""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "log2ceil",
    "geomean",
    "check_random_state",
]


def log2ceil(n: int) -> int:
    """Smallest ``k`` with ``2**k >= n`` (``0`` for ``n <= 1``).

    Used for spawn-overhead depth charges in the binary-forking model.
    """
    if n <= 1:
        return 0
    return int(math.ceil(math.log2(n)))


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (``nan`` for empty input)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return float("nan")
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def check_random_state(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
