"""Per-layer spans and counters, recorded from outside the program.

The traced benchmark child wraps the *seams* between layers: the public
functions one layer calls on another.  A seam is wrapped by replacing the
attribute its caller looks up at call time -- a module global such as
``repro.cluster.graph_linkage.minimum_spanning_tree``, or a method on
its class.  Each call then records a span (name, start, end, parent
span) and, where the seam has one, bumps a counter from its result.

The seam list is explicit.  A seam that is missing at install time
raises :class:`SeamError`, so a rename in the program cannot silently
drop a span.  With tracing off nothing is installed: the benchmark body
talks to a :class:`NullTracer`, whose spans cost one ``with`` block.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any

__all__ = [
    "COUNTERS",
    "ROOT",
    "SEAMS",
    "SPANS",
    "NullTracer",
    "Seam",
    "SeamError",
    "Tracer",
    "resolve",
]

#: The root span every workload body opens around its timed work.
ROOT = "pipeline"


class SeamError(LookupError):
    """A seam's target attribute does not exist in the program."""


# -- counters: each reads one call's arguments and result ------------------
def _edges_of(c: dict, args: tuple, result: Any) -> None:
    c["knn.edges"] += int(result[1].shape[0])


def _bridges_of(c: dict, args: tuple, result: Any) -> None:
    c["knn.bridges"] += len(result[0])


def _rounds_of(c: dict, args: tuple, result: Any) -> None:
    c["mst.boruvka_rounds"] += int(result[1])


def _tree_size(c: dict, args: tuple, result: Any) -> None:
    c["mst.chosen"] += int(result.m)


def _stream_size(c: dict, args: tuple, result: Any) -> None:
    c["mst.chosen"] += int(result[1].size)


def _runs_of(c: dict, args: tuple, result: Any) -> None:
    c["io.runs"] += len(result)


def _merged_of(c: dict, args: tuple, batch: Any) -> None:
    c["io.merged_records"] += int(batch.size)


def _batch_of(c: dict, args: tuple, result: Any) -> None:
    c["dynamic.batches"] += 1
    c["dynamic.recomputed"] += int(result)
    c["dynamic.tree_changes"] += int(result > 0)
    c["dynamic.reserve_sum"] += int(args[0].reserve_size)


def _levels_of(c: dict, args: tuple, result: Any) -> None:
    c["snapshot.levels"] = max(c["snapshot.levels"], int(result.levels))


def _file_size(c: dict, args: tuple, result: Any) -> None:
    c["snapshot.file_bytes"] += os.path.getsize(args[0])


def _pairs_of(c: dict, args: tuple, result: Any) -> None:
    c["query.pairs"] += int(result.shape[0])


@dataclass(frozen=True)
class Seam:
    """One wrapped call site: ``target`` is ``"module:attr"`` or
    ``"module:Class.method"``; ``kind="iter"`` times the work done inside
    the returned iterator, one span per item."""

    span: str
    target: str
    count: Callable[[dict, tuple, Any], None] | None = None
    kind: str = "call"


SEAMS: tuple[Seam, ...] = (
    Seam("knn", "repro.cluster.single_linkage:knn_graph", _edges_of),
    Seam("knn.distances", "repro.cluster.knn:pairwise_distances"),
    # The one private seam: the ROADMAP names bridging as its own stage.
    Seam("knn.bridge", "repro.cluster.knn:_bridge_components", _bridges_of),
    Seam("mst", "repro.cluster.graph_linkage:minimum_spanning_tree", _tree_size),
    Seam("mst", "repro.cluster.single_linkage:minimum_spanning_tree", _tree_size),
    Seam("mst.boruvka", "repro.trees.boruvka:boruvka_rounds", _rounds_of),
    Seam("mst.stream", "repro.trees.mst:streaming_kruskal_mst", _stream_size),
    Seam("io.spill", "repro.io.edgefile:spill_runs", _runs_of),
    Seam("io.merge", "repro.io.edgefile:merge_runs", _merged_of, kind="iter"),
    Seam("sld", "repro.cluster.graph_linkage:single_linkage_dendrogram"),
    Seam("sld", "repro.cluster.single_linkage:single_linkage_dendrogram"),
    Seam("sld", "repro.core.api:single_linkage_dendrogram"),
    Seam("dynamic.apply_batch", "repro.core.dynamic:DynamicSLD.apply_batch", _batch_of),
    Seam("dynamic.snapshot", "repro.core.dynamic:DynamicSLD.snapshot"),
    Seam("snapshot.build", "repro.dendrogram.snapshot:build_snapshot", _levels_of),
    Seam("snapshot.save", "repro.dendrogram.snapshot:save_snapshot", _file_size),
    Seam("snapshot.load", "repro.dendrogram.snapshot:load_snapshot"),
    Seam("query.merge_heights", "repro.dendrogram.query:QueryEngine.merge_heights", _pairs_of),
    Seam("query.cut_at", "repro.dendrogram.query:QueryEngine.cut_at"),
    Seam("query.cluster_of", "repro.dendrogram.query:QueryEngine.cluster_of"),
)

#: Every span a traced run reports: the root, the seams, and the one span
#: the benchmark opens around its own code (gathering the chosen edges).
SPANS: tuple[str, ...] = (ROOT, *dict.fromkeys(s.span for s in SEAMS), "io.gather")

#: Every counter a traced run reports, after :meth:`Tracer.summary`.
COUNTERS: tuple[str, ...] = (
    "knn.edges",
    "knn.bridges",
    "mst.boruvka_rounds",
    "mst.chosen",
    "mst.stream_yield",
    "io.runs",
    "io.merged_records",
    "dynamic.recomputed_mean",
    "dynamic.tree_change_frac",
    "dynamic.reserve",
    "snapshot.levels",
    "snapshot.file_bytes",
    "query.pairs",
)


def resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` of a seam target.

    Raises :class:`SeamError` when the module, class or attribute is
    missing.
    """
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise SeamError(f"seam {target!r}: module {module_name!r} not found") from exc
    *owners, attr = path.split(".")
    for name in owners:
        if not hasattr(owner, name):
            raise SeamError(f"seam {target!r}: {module_name} has no {name!r}")
        owner = getattr(owner, name)
    # Look in the class dict for methods so the original function, not a
    # bound method, is what gets saved and restored.
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise SeamError(f"seam {target!r}: {owner.__name__} has no method {attr!r}")
        return owner, attr, owner.__dict__[attr]
    if not hasattr(owner, attr):
        raise SeamError(f"seam {target!r}: {module_name} has no attribute {attr!r}")
    return owner, attr, getattr(owner, attr)


class NullTracer:
    """What the benchmark body talks to when tracing is off."""

    def span(self, name: str) -> Any:
        return nullcontext()


class Tracer:
    """Records spans and counters while installed over the seams.

    Use as a context manager: entering installs every seam (all or
    nothing), leaving restores the original attributes.
    """

    def __init__(self, seams: tuple[Seam, ...] = SEAMS) -> None:
        self.seams = seams
        #: One ``[name, start, end, parent index]`` record per span.
        self.spans: list[list[Any]] = []
        #: Raw tallies the seam counters add to; :meth:`summary` derives
        #: the reported :data:`COUNTERS` from them.
        self.counters: Counter[str] = Counter()
        self._open: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    # -- install / uninstall -------------------------------------------------
    def __enter__(self) -> "Tracer":
        resolved = [resolve(seam.target) for seam in self.seams]  # raises first
        for seam, (owner, attr, original) in zip(self.seams, resolved):
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(seam, original))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, seam: Seam, fn: Callable[..., Any]) -> Callable[..., Any]:
        counters, count = self.counters, seam.count

        if seam.kind == "iter":

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return self._timed_iter(seam, fn(*args, **kwargs), args)

        else:

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(seam.span):
                    result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, result)
                return result

        wrapper.__traced__ = True  # type: ignore[attr-defined]
        return wrapper

    def _timed_iter(self, seam: Seam, it: Iterator[Any], args: tuple) -> Iterator[Any]:
        try:
            while True:
                with self.span(seam.span):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                if seam.count is not None:
                    seam.count(self.counters, args, item)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    # -- results ---------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Self time per span name, shares of the root, and the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(SPANS, 0.0)
        root_s = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            if name == ROOT:
                root_s += end - start
        c = self.counters
        batches = max(1, c["dynamic.batches"])
        counters = {
            "knn.edges": c["knn.edges"],
            "knn.bridges": c["knn.bridges"],
            "mst.boruvka_rounds": c["mst.boruvka_rounds"],
            "mst.chosen": c["mst.chosen"],
            "mst.stream_yield": (
                c["mst.chosen"] / c["io.merged_records"] if c["io.merged_records"] else 0.0
            ),
            "io.runs": c["io.runs"],
            "io.merged_records": c["io.merged_records"],
            "dynamic.recomputed_mean": c["dynamic.recomputed"] / batches,
            "dynamic.tree_change_frac": c["dynamic.tree_changes"] / batches,
            "dynamic.reserve": c["dynamic.reserve_sum"] / batches,
            "snapshot.levels": c["snapshot.levels"],
            "snapshot.file_bytes": c["snapshot.file_bytes"],
            "query.pairs": c["query.pairs"],
        }
        return {
            "root_s": root_s,
            "self_s": self_s,
            "coverage": 1.0 - self_s[ROOT] / root_s if root_s else 0.0,
            "counters": counters,
        }
