"""Shadow access-set recording for the round-race detector.

This is the TSan analog for the package's *simulated* parallelism: a round
of tasks that the :class:`~repro.runtime.scheduler.Scheduler` executes
sequentially claims to be a legal linearization of a genuinely parallel
round.  That claim is only true if the tasks are independent -- no task
may write a memory cell another task of the same round reads or writes
(commutative atomic read-modify-writes excepted).  Instrumented structures
(:class:`~repro.structures.unionfind.UnionFind`, the meldable heaps,
:class:`~repro.trees.wtree.WeightedTree`) report their accesses here;
algorithm code annotates accesses to plain arrays/lists with
:func:`record_read` / :func:`record_write` / :func:`record_atomic`.

Recording is activated by installing a :class:`RoundRecorder` (the
``Scheduler(race_check=True)`` flag and the ``CostTracker(race_check=True)``
hook both do this).  When no recorder is installed every hook is a cheap
no-op, so the instrumentation can stay in production paths.

Cells
-----
A *cell* is a ``(provenance label, field)`` pair, e.g.
``("UnionFind#0", ("parent", 7))`` or ``("status", 12)``.  Provenance
labels are assigned per recorder: registered names via :func:`register`,
otherwise ``ClassName#k`` in first-touch order (stable for a fixed task
schedule, which is what the reports need).

Exemptions
----------
* Accesses made while no task segment is open (the sequential orchestrator
  between rounds) are not recorded.
* Accesses inside a :func:`commit_phase` block are exempt -- the declared
  escape hatch for sanctioned shared-state commits.
* Pure statistics counters (``UnionFind.finds`` and friends) are never
  recorded; a real implementation keeps them in thread-local or atomic
  counters.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

from repro.errors import RaceCheckError

__all__ = [
    "READ",
    "WRITE",
    "ATOMIC",
    "Cell",
    "SlabWindow",
    "TaskAccessLog",
    "RoundRecorder",
    "RECORDER",
    "install",
    "uninstall",
    "recording",
    "record_read",
    "record_write",
    "record_atomic",
    "record_slab_write",
    "register",
    "commit_phase",
]

READ = "read"
WRITE = "write"
ATOMIC = "atomic"

#: A shadow memory cell: ``(provenance label, field)``.
Cell = tuple[str, Any]

#: A half-open index window of one slab: ``(provenance label, lo, hi)``.
#: Windows generalize point cells to the flat-array backends, where a
#: worker's footprint is a contiguous partition ``parents[lo:hi]`` rather
#: than an enumerable set of cells (see :mod:`repro.checkers.ownership`).
SlabWindow = tuple[str, int, int]


class TaskAccessLog:
    """Read/write/atomic shadow sets of one task of one round."""

    __slots__ = ("index", "label", "reads", "writes", "atomics", "slab_reads", "slab_writes")

    def __init__(self, index: int, label: str | None = None) -> None:
        self.index = index
        self.label = label if label is not None else f"task {index}"
        self.reads: set[Cell] = set()
        self.writes: set[Cell] = set()
        self.atomics: set[Cell] = set()
        self.slab_reads: set[SlabWindow] = set()
        self.slab_writes: set[SlabWindow] = set()

    def cells(self) -> set[Cell]:
        """Every cell this task touched, regardless of access kind."""
        return self.reads | self.writes | self.atomics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskAccessLog({self.label}: {len(self.reads)}r "
            f"{len(self.writes)}w {len(self.atomics)}a "
            f"{len(self.slab_reads)}sr {len(self.slab_writes)}sw)"
        )


class RoundRecorder:
    """Collects per-task shadow access sets for one parallel round.

    Task segments are opened with :meth:`begin_task` (which closes any
    previously open segment) and closed with :meth:`end_task`.  Accesses
    reported while no segment is open, or inside a :func:`commit_phase`
    block, are not recorded.
    """

    __slots__ = ("logs", "where", "_current", "_commit_depth", "_names", "_keepalive", "_counts")

    def __init__(self, where: str | None = None) -> None:
        self.logs: list[TaskAccessLog] = []
        self.where = where
        self._current: TaskAccessLog | None = None
        self._commit_depth = 0
        # id() -> label; _keepalive pins the objects so ids stay unique for
        # the (short) lifetime of the recorder.
        self._names: dict[int, str] = {}
        self._keepalive: list[object] = []
        self._counts: dict[str, int] = {}

    # -- task segmentation -------------------------------------------------
    def begin_task(self, index: int | None = None, label: str | None = None) -> TaskAccessLog:
        """Open a new task segment (closing the current one, if any)."""
        if index is None:
            index = len(self.logs)
        log = TaskAccessLog(index, label)
        self.logs.append(log)
        self._current = log
        return log

    def end_task(self) -> None:
        """Close the currently open task segment (no-op if none is open)."""
        self._current = None

    def drop_open_task(self) -> None:
        """Discard the currently open segment entirely (commit tails)."""
        if self._current is not None:
            self.logs.remove(self._current)
            self._current = None

    # -- recording ---------------------------------------------------------
    def label_for(self, obj: object) -> str:
        """Provenance label of ``obj`` (strings label themselves)."""
        if isinstance(obj, str):
            return obj
        key = id(obj)
        name = self._names.get(key)
        if name is None:
            cls = type(obj).__name__
            k = self._counts.get(cls, 0)
            self._counts[cls] = k + 1
            name = f"{cls}#{k}"
            self._names[key] = name
            self._keepalive.append(obj)
        return name

    def record(self, obj: object, field: Any, kind: str) -> None:
        cur = self._current
        if cur is None or self._commit_depth:
            return
        cell = (self.label_for(obj), field)
        if kind == READ:
            cur.reads.add(cell)
        elif kind == WRITE:
            cur.writes.add(cell)
        else:
            cur.atomics.add(cell)

    def record_window(self, obj: object, lo: int, hi: int, kind: str) -> None:
        """Record an access to the half-open slab window ``obj[lo:hi]``."""
        cur = self._current
        if cur is None or self._commit_depth or hi <= lo:
            return
        window = (self.label_for(obj), int(lo), int(hi))
        if kind == READ:
            cur.slab_reads.add(window)
        else:
            cur.slab_writes.add(window)


#: The currently installed recorder, or ``None``.  Instrumented code reads
#: this global inline (``if _access.RECORDER is not None: ...``) so the
#: disabled path costs one attribute load.
RECORDER: RoundRecorder | None = None


def install(recorder: RoundRecorder) -> None:
    """Make ``recorder`` the active recorder; rejects nested installs."""
    global RECORDER
    if RECORDER is not None:
        raise RaceCheckError(
            "a race recorder is already installed; nested race-checked "
            "rounds must record into the outer round's open task"
        )
    RECORDER = recorder


def uninstall(recorder: RoundRecorder) -> None:
    """Remove ``recorder``; raises if it is not the installed one."""
    global RECORDER
    if RECORDER is not recorder:
        raise RaceCheckError("uninstall of a recorder that is not installed")
    RECORDER = None


def recording() -> bool:
    """True when a recorder is installed and a task segment is open."""
    rec = RECORDER
    return rec is not None and rec._current is not None


def register(obj: object, name: str) -> None:
    """Give ``obj`` a stable provenance ``name`` in the active recorder."""
    rec = RECORDER
    if rec is not None and not isinstance(obj, str):
        rec.label_for(obj)  # ensure keepalive
        rec._names[id(obj)] = name


# -- hot-path hooks --------------------------------------------------------
def record_read(obj: object, field: Any = "value") -> None:
    """Record a shared read of ``obj[field]`` by the open task, if any."""
    rec = RECORDER
    if rec is not None:
        rec.record(obj, field, READ)


def record_write(obj: object, field: Any = "value") -> None:
    """Record a plain shared write of ``obj[field]`` by the open task."""
    rec = RECORDER
    if rec is not None:
        rec.record(obj, field, WRITE)


def record_atomic(obj: object, field: Any = "value") -> None:
    """Record a commutative atomic RMW (CAS / fetch-and-add) of a cell.

    Atomic accesses to the same cell from different tasks do not conflict
    with each other; mixing an atomic with a plain read or write does.
    """
    rec = RECORDER
    if rec is not None:
        rec.record(obj, field, ATOMIC)


def record_slab_write(obj: object, lo: int, hi: int) -> None:
    """Record a plain shared write of the slab window ``obj[lo:hi]``.

    ``@owns``-decorated kernels report their declared partitions through
    this hook automatically (see :mod:`repro.checkers.ownership`), so two
    same-round tasks whose declared windows overlap raise a round race
    even before any element-level write is observed.
    """
    rec = RECORDER
    if rec is not None:
        rec.record_window(obj, lo, hi, WRITE)


@contextmanager
def commit_phase() -> Iterator[None]:
    """Declared commit phase: accesses inside the block are exempt.

    The sanctioned escape hatch for shared-state mutation inside a task
    body -- use only for commits that a real implementation would perform
    under a barrier or with a dedicated combining structure.
    """
    rec = RECORDER
    if rec is None:
        yield
        return
    rec._commit_depth += 1
    try:
        yield
    finally:
        rec._commit_depth -= 1
