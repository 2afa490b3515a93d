"""Work-depth cost accounting in the binary-forking model.

Two pieces:

* :class:`WorkDepth` -- an immutable ``(work, depth)`` pair with the usual
  series/parallel composition algebra:

  - series:   ``work = w1 + w2``, ``depth = d1 + d2``
  - parallel: ``work = sum(w_i)``, ``depth = max(d_i) + ceil(log2(k))``
    (the log term is the binary-forking spawn overhead for ``k`` tasks).

* :class:`CostTracker` -- a mutable accumulator that algorithms charge as
  they run.  Round-structured algorithms (tree contraction, ParUF levels)
  use :meth:`CostTracker.parallel_round`; recursive divide-and-conquer code
  composes :class:`WorkDepth` values functionally (``+`` in series,
  :func:`combine_parallel` in parallel) and deposits the result with
  :meth:`CostTracker.add`.

Charging conventions used throughout the package (matching the paper's
analysis in Sections 3-4):

- a heap insert/delete-min/meld on a heap of size ``s`` charges
  ``log2(s)+1`` work,
- a heap filter extracting ``k`` of ``s`` items charges ``k*(log2(s)+1)``
  work and ``(log2(s)+1)**2`` depth,
- a comparison sort of ``n`` items charges ``n*log2(n)`` work and
  ``log2(n)**2`` depth (:func:`comparison_sort_cost`),
- a sequential scan of ``n`` items charges ``n`` work / ``n`` depth, a
  parallel scan ``n`` work / ``2*log2(n)`` depth.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.checkers import access as _access
from repro.checkers.races import check_recorder
from repro.errors import AlgorithmError, SchedulerError
from repro.util import log2ceil

__all__ = [
    "BACKENDS",
    "WorkDepth",
    "CostTracker",
    "check_backend",
    "combine_parallel",
    "comparison_sort_cost",
    "instrumented",
    "log_cost",
]


def log_cost(size: int) -> float:
    """Cost charged for one ``O(log s)`` heap operation on ``s`` elements."""
    return math.log2(size) + 1.0 if size > 1 else 1.0


@dataclass(frozen=True)
class WorkDepth:
    """An immutable work/depth pair."""

    work: float = 0.0
    depth: float = 0.0

    def then(self, other: "WorkDepth") -> "WorkDepth":
        """Series composition: ``self`` followed by ``other``."""
        return WorkDepth(self.work + other.work, self.depth + other.depth)

    def __add__(self, other: "WorkDepth") -> "WorkDepth":
        return self.then(other)

    @staticmethod
    def zero() -> "WorkDepth":
        return WorkDepth(0.0, 0.0)

    @staticmethod
    def seq(work: float) -> "WorkDepth":
        """A sequential segment: depth equals work."""
        return WorkDepth(work, work)


def comparison_sort_cost(n: int) -> WorkDepth:
    """Work/depth of a parallel comparison sort of ``n`` items."""
    if n <= 1:
        return WorkDepth(float(max(n, 0)), 1.0 if n else 0.0)
    lg = log2ceil(n)
    return WorkDepth(float(n * lg), float(lg * lg))


def combine_parallel(parts: Sequence[WorkDepth]) -> WorkDepth:
    """Parallel composition with binary-forking spawn overhead."""
    if not parts:
        return WorkDepth.zero()
    w = sum(p.work for p in parts)
    d = max(p.depth for p in parts)
    return WorkDepth(w, d + log2ceil(len(parts)))


class _Round:
    """Accumulator handed out by :meth:`CostTracker.parallel_round`."""

    __slots__ = ("_work", "_depth", "_count", "_recorder")

    def __init__(self, recorder: _access.RoundRecorder | None = None) -> None:
        self._work = 0.0
        self._depth = 0.0
        self._count = 0
        self._recorder = recorder

    def task(self, work: float, depth: float | None = None) -> None:
        """Record one parallel task of the round.

        ``depth`` defaults to ``work`` (a sequential task body).  Under a
        race-checking tracker each ``task()`` call also closes the current
        shadow-access segment: the accesses made since the previous call
        belong to the task whose cost is charged here.
        """
        if depth is None:
            depth = work
        self._work += work
        if depth > self._depth:
            self._depth = depth
        self._count += 1
        rec = self._recorder
        if rec is not None:
            rec.end_task()
            rec.begin_task(self._count, label=f"task {self._count}")

    def as_workdepth(self) -> WorkDepth:
        if self._count == 0:
            return WorkDepth.zero()
        return WorkDepth(self._work, self._depth + log2ceil(self._count))


class CostTracker:
    """Mutable work/depth accumulator charged by instrumented algorithms.

    Passing no tracker (``tracker=None``) is the one way to run an
    algorithm uninstrumented; see :func:`instrumented`.

    With ``race_check=True`` every :meth:`parallel_round` additionally runs
    under the shadow access recorder of :mod:`repro.checkers.access`.  The
    round's ``task(cost)`` calls double as task boundaries: the accesses
    made since the previous ``task()`` call form the shadow set of the task
    whose cost is being charged, accesses after the final ``task()`` call
    are the round's (exempt) commit tail, and conflicting sets raise
    :class:`~repro.errors.RaceConditionError` when the round closes.
    """

    __slots__ = ("race_check", "_work", "_depth", "_open_rounds")

    def __init__(self, race_check: bool = False) -> None:
        self.race_check = race_check
        self._work = 0.0
        self._depth = 0.0
        self._open_rounds = 0

    # -- read API ---------------------------------------------------------
    @property
    def work(self) -> float:
        return self._work

    @property
    def depth(self) -> float:
        return self._depth

    def snapshot(self) -> WorkDepth:
        return WorkDepth(self._work, self._depth)

    # -- write API --------------------------------------------------------
    def sequential(self, work: float, depth: float | None = None) -> None:
        """Charge a sequential segment (depth defaults to work)."""
        self._work += work
        self._depth += work if depth is None else depth

    def add(self, cost: WorkDepth) -> None:
        """Deposit a pre-composed :class:`WorkDepth` (series with history)."""
        self._work += cost.work
        self._depth += cost.depth

    def parallel_round(self) -> "_RoundContext":
        """Context manager collecting one synchronous parallel round."""
        return _RoundContext(self)

    def reset(self) -> None:
        if self._open_rounds:
            raise SchedulerError("cannot reset tracker inside an open parallel round")
        self._work = 0.0
        self._depth = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostTracker(work={self._work:.0f}, depth={self._depth:.0f})"


class _RoundContext:
    __slots__ = ("_tracker", "_round", "_recorder")

    def __init__(self, tracker: CostTracker) -> None:
        self._tracker = tracker
        self._round: _Round | None = None
        self._recorder: _access.RoundRecorder | None = None

    def __enter__(self) -> _Round:
        recorder = None
        if self._tracker.race_check:
            # A recorder already installed (nested round) keeps recording
            # into the outer round's open task.
            if _access.RECORDER is None:
                recorder = _access.RoundRecorder(where="parallel_round")
                _access.install(recorder)
                recorder.begin_task(0, label="task 0")
        self._recorder = recorder
        self._round = _Round(recorder)
        self._tracker._open_rounds += 1
        return self._round

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        assert self._round is not None
        self._tracker._open_rounds -= 1
        recorder = self._recorder
        if recorder is not None:
            # The segment opened after the final task() charge is the
            # round's commit tail: exempt by the round model.
            recorder.drop_open_task()
            _access.uninstall(recorder)
        if exc_type is None:
            self._tracker.add(self._round.as_workdepth())
            if recorder is not None:
                check_recorder(recorder)


#: Recognized values of every ``backend=`` selector: the dendrogram
#: dispatcher, the MST entry points and both clustering pipelines.
BACKENDS = ("auto", "reference", "array")


def check_backend(backend: str) -> None:
    """Raise :class:`~repro.errors.AlgorithmError` unless ``backend`` is in :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise AlgorithmError(f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}")


def instrumented(tracker: CostTracker | None) -> bool:
    """True when a call must take its instrumented path: there is a
    ``tracker`` to charge or a shadow-access recorder is installed.
    Otherwise array twins run their own kernels instead of delegating to
    the reference."""
    return tracker is not None or _access.RECORDER is not None
