"""Round-race conflict detection over recorded shadow access sets.

Given the per-task :class:`~repro.checkers.access.TaskAccessLog` sets of
one parallel round, :func:`find_conflicts` reports every cell that two
different tasks touched in an unserializable way:

* ``write-write`` -- two tasks both plain-wrote the cell;
* ``read-write``  -- one task plain-wrote a cell another task read;
* ``atomic-plain`` -- one task used a declared atomic RMW on a cell that
  another task read or wrote non-atomically (a real CAS/fetch-add racing a
  plain load/store is still a data race).

Two atomic accesses to the same cell never conflict: commutative RMWs are
exactly the operations the paper's implementation performs with hardware
atomics, and the round result does not depend on their order.

A conflict means the round's tasks are not independent, so the work-depth
charge for that round (parallel composition) is unsound and any
``shuffle=True`` order-insensitivity claim is void.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.checkers.access import RoundRecorder, TaskAccessLog
from repro.errors import RaceConditionError

__all__ = ["Conflict", "find_conflicts", "check_recorder"]

WRITE_WRITE = "write-write"
READ_WRITE = "read-write"
ATOMIC_PLAIN = "atomic-plain"


@dataclass(frozen=True)
class Conflict:
    """One unserializable pair of same-round accesses to one cell."""

    kind: str
    obj: str
    field: Any
    task_a: str
    task_b: str

    def describe(self) -> str:
        field = self.field if isinstance(self.field, str) else repr(self.field)
        return (
            f"{self.kind} conflict on {self.obj}[{field}] "
            f"between {self.task_a} and {self.task_b}"
        )


#: One interval participant: ``(lo, hi, log, is_write, is_window)``.
_Span = tuple[int, int, TaskAccessLog, bool, bool]


def _window_conflicts(logs: Sequence[TaskAccessLog]) -> list[Conflict]:
    """Conflicts involving half-open slab windows (``parents[lo:hi]``).

    Windows are the declared write partitions of ``@owns`` kernels.  Two
    same-round accesses to one slab label conflict when their index
    intervals overlap, the tasks differ, at least one access is a plain
    write, and at least one side is a window (point-cell pairs are the
    existing cell pass's job).  Point cells with integer fields join as
    degenerate ``[i, i+1)`` intervals, so a scalar ``status[7]`` read or
    write races against another task's declared ``status[0:16]`` window.
    """
    spans: dict[str, list[_Span]] = {}
    for log in logs:
        for label, lo, hi in log.slab_writes:
            spans.setdefault(label, []).append((lo, hi, log, True, True))
        for label, field in log.writes:
            if isinstance(field, int):
                spans.setdefault(label, []).append((field, field + 1, log, True, False))
        for label, field in log.reads:
            if isinstance(field, int):
                spans.setdefault(label, []).append((field, field + 1, log, False, False))

    conflicts: list[Conflict] = []
    seen: set[tuple[str, str]] = set()
    for label in sorted(spans):
        entries = sorted(spans[label], key=lambda s: (s[0], s[1], s[2].index))
        for i, (alo, ahi, alog, awrite, awin) in enumerate(entries):
            for blo, bhi, blog, bwrite, bwin in entries[i + 1 :]:
                if blo >= ahi:
                    break  # sorted by lo: nothing further overlaps a
                if blog is alog or not (awin or bwin) or not (awrite or bwrite):
                    continue
                kind = WRITE_WRITE if (awrite and bwrite) else READ_WRITE
                if (label, kind) in seen:
                    continue
                seen.add((label, kind))
                overlap = f"{max(alo, blo)}:{min(ahi, bhi)}"
                first, second = (alog, blog) if awrite else (blog, alog)
                conflicts.append(Conflict(kind, label, overlap, first.label, second.label))
    return conflicts


def find_conflicts(logs: Sequence[TaskAccessLog]) -> list[Conflict]:
    """All conflicts among the task access sets of one round.

    Reports at most one conflict per ``(cell, kind)`` (the first offending
    task pair in log order) so pathological rounds stay readable.  Slab
    windows are checked for interval overlap against other windows and
    against integer point cells of the same label (at most one conflict
    per ``(label, kind)``).
    """
    if len(logs) < 2:
        return []
    writers: dict[tuple[str, Any], list[TaskAccessLog]] = {}
    readers: dict[tuple[str, Any], list[TaskAccessLog]] = {}
    atomics: dict[tuple[str, Any], list[TaskAccessLog]] = {}
    for log in logs:
        for cell in log.writes:
            writers.setdefault(cell, []).append(log)
        for cell in log.reads:
            readers.setdefault(cell, []).append(log)
        for cell in log.atomics:
            atomics.setdefault(cell, []).append(log)

    conflicts: list[Conflict] = []
    cells = set(writers) | set(atomics)
    for cell in sorted(cells, key=repr):
        obj, field = cell
        ws = writers.get(cell, [])
        rs = readers.get(cell, [])
        ats = atomics.get(cell, [])
        if len(ws) >= 2:
            conflicts.append(Conflict(WRITE_WRITE, obj, field, ws[0].label, ws[1].label))
        for w in ws:
            other = next((r for r in rs if r is not w), None)
            if other is not None:
                conflicts.append(Conflict(READ_WRITE, obj, field, w.label, other.label))
                break
        if ats:
            plain = next(
                (p for p in ws + rs if all(p is not a for a in ats)),
                None,
            )
            if plain is not None:
                conflicts.append(
                    Conflict(ATOMIC_PLAIN, obj, field, ats[0].label, plain.label)
                )
    conflicts.extend(_window_conflicts(logs))
    return conflicts


def check_recorder(recorder: RoundRecorder, where: str | None = None) -> None:
    """Raise :class:`~repro.errors.RaceConditionError` if the recorded
    round contains conflicts."""
    conflicts = find_conflicts(recorder.logs)
    if conflicts:
        raise RaceConditionError(conflicts, where=where or recorder.where)
