"""Phase spans for breakdown experiments (paper Figure 7).

Algorithms mark their phases with ``with span("build"): ...``.  A span
records only inside a ``with recording(tracker) as rec:`` block; outside
every block it returns a shared no-op context without reading the clock,
so the marks cost one list test on uninstrumented calls.  Blocks nest and
the innermost one records, as with
:func:`repro.runtime.interleave.hostile_schedule`.

The block's :class:`PhaseRecorder` keeps per-phase wall time plus the
work/depth its :class:`~repro.runtime.cost_model.CostTracker` was charged
inside the phase.  The Brent simulation in :mod:`repro.bench.harness` needs
this split because phases scale very differently -- SeqUF's edge sort
parallelizes while its merge loop does not, and collapsing them into one
global (W, D) pair would let the sort's work mask the loop's sequential
depth.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cost_model import CostTracker

__all__ = ["PhaseCost", "PhaseRecorder", "recording", "span"]

#: The clock every span reads; only ever read inside a ``recording`` block.
_clock = time.perf_counter


class PhaseCost:
    """Wall seconds plus charged work/depth of one named phase."""

    __slots__ = ("seconds", "work", "depth")

    def __init__(self, seconds: float = 0.0, work: float = 0.0, depth: float = 0.0) -> None:
        self.seconds = seconds
        self.work = work
        self.depth = depth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseCost(seconds={self.seconds:.4f}, work={self.work:.0f}, depth={self.depth:.0f})"


class PhaseRecorder:
    """Accumulates wall time (and, if bound, work/depth) per named phase.

    Example::

        tracker = CostTracker()
        with recording(tracker) as rec:
            sequf(tree, tracker=tracker)
        rec.phase_costs["sort"].work  # work charged during the sort phase
    """

    def __init__(self, tracker: "CostTracker | None" = None) -> None:
        self._tracker = tracker
        self._costs: dict[str, PhaseCost] = {}

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        start = _clock()
        tracker = self._tracker
        w0, d0 = (tracker.work, tracker.depth) if tracker is not None else (0.0, 0.0)
        try:
            yield
        finally:
            cost = self._costs.setdefault(name, PhaseCost())
            cost.seconds += _clock() - start
            if tracker is not None:
                cost.work += tracker.work - w0
                cost.depth += tracker.depth - d0

    @property
    def phases(self) -> dict[str, float]:
        """Elapsed seconds per phase, in first-seen order."""
        return {name: cost.seconds for name, cost in self._costs.items()}

    @property
    def phase_costs(self) -> dict[str, PhaseCost]:
        """Per-phase ``(seconds, work, depth)`` records."""
        return {name: PhaseCost(c.seconds, c.work, c.depth) for name, c in self._costs.items()}


#: Innermost-wins stack of active recorders (index -1 is current).
_STACK: list[PhaseRecorder] = []

_OFF: AbstractContextManager[None] = nullcontext()


@contextmanager
def recording(tracker: "CostTracker | None" = None) -> Iterator[PhaseRecorder]:
    """Record every :func:`span` entered in the block; yields the recorder."""
    recorder = PhaseRecorder(tracker)
    _STACK.append(recorder)
    try:
        yield recorder
    finally:
        _STACK.remove(recorder)


def span(name: str) -> AbstractContextManager[None]:
    """Time the enclosed block as phase ``name`` of the innermost recording.

    Outside every :func:`recording` block this is a no-op that never reads
    the clock.
    """
    if not _STACK:
        return _OFF
    return _STACK[-1]._span(name)
