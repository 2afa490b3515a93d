"""Round-structured task scheduler with cost accounting and race checking.

:class:`Scheduler` executes a *round* of independent tasks (callables that
return ``(value, WorkDepth)``) and charges the round's parallel composition
to a :class:`~repro.runtime.cost_model.CostTracker`.  Execution order within
a round is deterministic by default but may be permuted (``shuffle=True``)
to demonstrate order-insensitivity of the round-structured algorithms, the
same role the hardware scheduler's nondeterminism plays in the paper's
implementation.

With ``race_check=True`` every round additionally runs under the shadow
access recorder of :mod:`repro.checkers.access`: instrumented structures
(union-find, the meldable heaps, :class:`~repro.trees.wtree.WeightedTree`)
and annotated algorithm code report per-task read/write sets, and after the
round the sets are intersected.  Any write-write, read-write, or
atomic/plain conflict between two tasks raises
:class:`~repro.errors.RaceConditionError` -- the machine check that the
round's tasks really were independent, i.e. that the sequential execution
is a legal linearization of a race-free parallel round (and hence that
``shuffle`` cannot change the result).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.checkers import access as _access
from repro.checkers.races import check_recorder
from repro.runtime import interleave
from repro.runtime.cost_model import CostTracker, WorkDepth, combine_parallel
from repro.util import check_random_state

__all__ = ["Scheduler"]

Task = Callable[[], tuple[Any, WorkDepth]]


class Scheduler:
    """Executes rounds of independent cost-reporting tasks.

    Parameters
    ----------
    tracker:
        Cost accumulator charged with each round's parallel composition
        (nothing is charged when omitted).
    shuffle:
        Permute execution order within each round (results are still
        returned in task order).
    seed:
        Seed for the shuffle permutation; the same seed replays the same
        sequence of permutations.
    race_check:
        Record per-task shadow access sets and raise
        :class:`~repro.errors.RaceConditionError` on conflicts.
    """

    def __init__(
        self,
        tracker: CostTracker | None = None,
        shuffle: bool = False,
        seed: int | np.random.Generator | None = None,
        race_check: bool = False,
    ) -> None:
        self.tracker = tracker
        self.shuffle = shuffle
        self.race_check = race_check
        self._rng = check_random_state(seed)
        self.rounds_run = 0
        #: Execution order of the most recent round (task indices).
        self.last_order: np.ndarray | None = None

    def run_round(self, tasks: Sequence[Task], where: str | None = None) -> list[Any]:
        """Run all ``tasks``; return their values in the original task order.

        ``where`` labels the round in race reports (e.g. ``"rake round 3"``).
        """
        n = len(tasks)
        if n == 0:
            return []
        order = np.arange(n)
        if self.shuffle and n > 1:
            self._rng.shuffle(order)
        elif n > 1:
            # Under an adversarial-interleaving sanitizer, a scheduler that
            # was not explicitly asked to shuffle still executes the round
            # in a hostile permutation: round tasks claim independence, so
            # no order may change the result.
            hostile = interleave.current()
            if hostile is not None:
                order = np.asarray(hostile.permutation(n), dtype=order.dtype)
        self.last_order = order
        values: list[Any] = [None] * n
        costs: list[WorkDepth] = [WorkDepth.zero()] * n
        recorder = None
        if self.race_check:
            recorder = _access.RoundRecorder(where=where or f"round {self.rounds_run}")
            _access.install(recorder)
        try:
            for idx in order:
                i = int(idx)
                if recorder is not None:
                    recorder.begin_task(i, label=f"task {i}")
                value, cost = tasks[i]()
                values[i] = value
                costs[i] = cost
            if recorder is not None:
                recorder.end_task()
        finally:
            if recorder is not None:
                _access.uninstall(recorder)
        if self.tracker is not None:
            self.tracker.add(combine_parallel(costs))
        self.rounds_run += 1
        if recorder is not None:
            check_recorder(recorder)
        return values
