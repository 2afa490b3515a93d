"""Adversarial-interleaving sanitizer: hostile schedules on demand.

The round-structured algorithms claim order-insensitivity (Lemma 4.1 and
the ``Scheduler(shuffle=True)`` tests machine-check it per round), and the
threaded ParUF claims its CAS protocol tolerates *any* thread interleaving.
Both claims are usually tested under the friendliest possible schedule --
FIFO submission order on an idle machine.  This module supplies the
opposite: a seeded *hostile schedule* that

* permutes the execution order of a
  :class:`~repro.runtime.scheduler.Scheduler` round, and
* injects tiny randomized delays at the marked interleaving points of
  :func:`~repro.core.paruf_threaded.paruf_threaded` (:func:`maybe_delay`),
  widening race windows the way a preemption-happy OS scheduler would.

A correct kernel produces **bit-identical** output under every hostile
schedule; the parsafe battery (:func:`repro.checkers.runner.run_interleaving_battery`)
asserts exactly that across >= 20 seeds, and the fuzz selftest proves the
machinery has teeth by resurrecting a lost-update mutant it must catch.

Activation
----------
Scoped: ``with hostile_schedule(seed): ...`` (re-entrant; the innermost
schedule wins).  Process-wide: set ``REPRO_HOSTILE_SCHEDULE=<seed>`` in
the environment before import -- this is how CI runs a whole fuzz shard
under adversarial interleaving.  When no schedule is active every hook is
a cheap no-op, so the marks can stay in production paths.

Determinism
-----------
Permutations are drawn from a per-schedule ``random.Random(seed)`` under a
lock, so a fixed seed replays the same sequence of permutations for a
fixed sequence of ``permutation(n)`` calls.  Delays perturb *timing* only;
any output change they provoke is by definition a race in the kernel, not
nondeterminism of the sanitizer.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = [
    "HostileSchedule",
    "hostile_schedule",
    "current",
    "maybe_delay",
    "ENV_FLAG",
]

#: Environment variable holding an integer seed for a process-wide schedule.
ENV_FLAG = "REPRO_HOSTILE_SCHEDULE"

#: Fraction of :func:`maybe_delay` calls that actually sleep.
_DELAY_PROBABILITY = 0.5

#: Upper bound of one injected delay, in seconds (~50 microseconds).
_MAX_DELAY_S = 50e-6


class HostileSchedule:
    """One seeded adversarial schedule (permutation + delay source)."""

    __slots__ = ("seed", "delays", "_rng", "_lock")

    def __init__(self, seed: int, delays: bool = True) -> None:
        self.seed = int(seed)
        self.delays = delays
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def permutation(self, n: int) -> list[int]:
        """A fresh hostile execution order for ``n`` tasks."""
        if n <= 1:
            return list(range(n))
        with self._lock:
            return self._rng.sample(range(n), n)

    def draw_delay(self) -> float:
        """The next injected delay in seconds (0.0 means no sleep)."""
        if not self.delays:
            return 0.0
        with self._lock:
            r = self._rng.random()
        if r >= _DELAY_PROBABILITY:
            return 0.0
        return (r / _DELAY_PROBABILITY) * _MAX_DELAY_S

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HostileSchedule(seed={self.seed}, delays={self.delays})"


def _from_env() -> list[HostileSchedule]:
    raw = os.environ.get(ENV_FLAG, "").strip()
    if not raw:
        return []
    try:
        seed = int(raw)
    except ValueError:
        return []
    return [HostileSchedule(seed)]


#: Innermost-wins stack of active schedules (index -1 is current).
_STACK: list[HostileSchedule] = _from_env()


def current() -> HostileSchedule | None:
    """The innermost active schedule, or ``None``."""
    return _STACK[-1] if _STACK else None


@contextmanager
def hostile_schedule(seed: int) -> Iterator[HostileSchedule]:
    """Activate a seeded hostile schedule for the duration of the block."""
    schedule = HostileSchedule(seed)
    _STACK.append(schedule)
    try:
        yield schedule
    finally:
        _STACK.remove(schedule)


def maybe_delay(point: str = "") -> None:
    """Marked interleaving point: sleep briefly under a hostile schedule.

    ``point`` labels the location for humans reading the call site; the
    sanitizer itself only needs the timing perturbation.  A no-op (one
    list truth test) when no schedule is active, so threaded hot paths can
    carry the mark permanently.
    """
    if not _STACK:
        return
    delay = _STACK[-1].draw_delay()
    if delay > 0.0:
        time.sleep(delay)
