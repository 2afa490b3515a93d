"""Brent's-law machine simulation.

Given measured work ``W`` and depth ``D`` of an instrumented run, a greedy
scheduler on ``P`` processors finishes in time

    ``T(P) <= W / P + D``            (Brent's theorem)

We use this bound as the simulated running time, anchored so that the
simulated one-processor time equals the *measured* single-thread wall time
``t1``.  One processor executes all the work -- its depth is *covered* by
the work, not added to it -- so the anchor is ``T(1) = W``, and:

    ``T(P) = t1 * min(1, (W / P + D) / W)``

The clamp at 1 keeps extra processors from ever slowing a greedy schedule
down (a purely sequential phase, ``W == D``, correctly gains nothing).

This reproduces the paper's thread-scaling experiments (Figures 6 and 8) on
hardware without shared-memory parallelism: speedup curves, crossover
points, and who-wins orderings are all functions of the ``W``/``D`` ratio,
which we measure rather than guess.  Absolute times are reported for the
measured 1-thread runs only.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["time_scale", "calibrated_times"]


def time_scale(work: float, depth: float, p: int) -> float:
    """Fraction of the one-processor time that ``p`` processors need.

    One processor executes all the work, so ``T(1) = W`` (depth is *covered*
    by the work, not added to it); ``p`` processors obey Brent's bound
    ``T(p) <= W/p + D``.  The ratio is clamped at 1 -- more processors never
    slow a greedy schedule down -- which makes a purely sequential phase
    (``W == D``) correctly gain nothing.
    """
    if p < 1:
        raise ValueError(f"processor count must be >= 1, got {p}")
    if work <= 0:
        return 1.0
    return min(1.0, (work / p + depth) / work)


def calibrated_times(
    t1_seconds: float, work: float, depth: float, ps: Sequence[int]
) -> list[float]:
    """Simulated wall times for ``ps`` processors, anchored at ``t1_seconds``.

    ``t1_seconds`` is the measured single-thread wall time of the same run
    that produced ``work`` and ``depth``.
    """
    if t1_seconds < 0:
        raise ValueError("t1_seconds must be non-negative")
    return [t1_seconds * time_scale(work, depth, p) for p in ps]
