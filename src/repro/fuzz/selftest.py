"""Fuzzer selftest: inject known mutants, fail unless every one is caught.

A fuzzer that silently stops finding bugs is worse than none, so
``python -m repro fuzz --selftest`` resurrects eleven known bug patterns
-- five algorithmic, two dynamic-engine, one streaming-MST, three being
the exact io bugs this subsystem originally caught -- and requires the
standard battery to flag each one within a bounded number of cases.  A
mutant is a domain override: the registry domain
(:mod:`repro.fuzz.domains`) with its ``check`` replaced by one that runs
the same oracle against the buggy implementation, so the generator, the
shrinker and the corpus codec are exactly the production ones.

Algorithm mutants:

* ``dropped-tiebreak`` -- ranks assigned by weight only, ties broken in
  *reverse* edge-id order (the paper's determinism assumption violated);
  only duplicate-weight inputs expose it, which is exactly what the
  weight-family generator must keep producing.
* ``grandparent-reattach`` -- every dendrogram node is reattached to its
  grandparent: still structurally valid (rank-increasing, one root), so
  only the differential oracle can see it.
* ``label-tiebreak`` -- weight ties broken by endpoint vertex ids; caught
  by the *leaf-relabeling* metamorphic relation with the oracle disabled,
  proving the relations carry detection power of their own.
* ``windowed-lost-update`` -- the rank-ordered merge runs in windows of 8
  whose edges are applied in a hostile-permuted order
  (:class:`~repro.runtime.interleave.HostileSchedule` with a fixed seed):
  the exact lost-update race the adversarial-interleaving sanitizer
  exists to catch.  Under the identity permutation the result is
  bit-identical to ``sequf``; whenever two same-window edges extend the
  same cluster chain, the permutation swaps their merges and the chain's
  parent pointers come out wrong -- deterministically, so the shrunken
  corpus entry is byte-stable.
* ``heap-pool-broken-carry`` -- the slab heap pool's binary-carry link
  skips the key comparison, so rebuilt trees violate heap order and
  ``filter``'s pruning stops descending too early.  Structure-only pool
  corruption (degrees, grouping) is semantically invisible -- the spine
  *contents* decide the dendrogram -- so the mutant targets the one
  property the tree-contraction driver actually relies on; only the
  differential oracle can see the resulting wrong parents.

Dynamic-engine mutants (plausible maintenance bugs of the batch-dynamic
``DynamicSLD``):

* ``dynamic-unmerged-spines`` -- the insert half of the dendrogram
  splice hangs the new edge under the lower of the two spine heads but
  never merges the spines above it, so the other spine's top stays a
  root.  The dynamic-vs-recompute differential sees it after the batch;
  a later rewrite in the same batch that walks the broken spine trips
  the engine's bounded walk, and the error contract sees that.
* ``dynamic-no-rollback`` -- a failed batch leaves its partial work
  applied instead of replaying its undo log; caught by the
  error-contract/rollback arm of the shadow-model oracle.

Streaming-MST mutant:

* ``streaming-dropped-window`` -- the out-of-core Kruskal consumer skips
  the second filter window, the classic off-by-one over a window
  boundary: when the first window of ``chunk`` candidates already spans
  the graph there is no second window and the mutant is invisible, so
  only the graph domain's boundary-biased chunk distribution keeps it
  catchable.  Dropped edges either leave the spanning forest short (a
  crash finding) or silently promote heavier edges into the MST (a
  differential finding).

io mutants (the resurrected pre-fix ``load_edges_csv`` behaviors):

* ``csv-header-kept`` -- ``has_header=True`` only skipped a row when the
  first cell failed to parse as an int;
* ``csv-valueerror-leak`` -- cell parse failures escaped as raw
  ``ValueError``;
* ``csv-selfloop-accepted`` -- self loops and duplicate edges were
  ingested silently.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.fast_contraction import tree_contraction_fast
from repro.core.sequf import sequf
from repro.fuzz.domains import CSV, DYNAMIC, GRAPH, TREE, Domain
from repro.fuzz.generators import TreeCase
from repro.fuzz.oracles import (
    LoadEdgesCsv,
    differential_check,
    dynamic_check,
    io_csv_check,
    mst_check,
)
from repro.fuzz.relations import relations_check
from repro.fuzz.runner import run_fuzz
from repro.structures.heap_pool import HeapPool
from repro.trees.wtree import WeightedTree

__all__ = ["MUTANTS", "SelftestReport", "run_selftest"]


# ---------------------------------------------------------------------------
# Algorithm mutants
# ---------------------------------------------------------------------------


def _uf_sld(tree: WeightedTree, order: np.ndarray) -> np.ndarray:
    """Sequential union-find SLD merging edges in the given order (the
    SeqUF recurrence, reimplemented so mutants do not share sequf's code)."""
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    uf_parent = list(range(tree.n))
    top = [-1] * tree.n  # most recent merge node inside each cluster

    def find(x: int) -> int:
        while uf_parent[x] != x:
            uf_parent[x] = uf_parent[uf_parent[x]]
            x = uf_parent[x]
        return x

    for e in order:
        e = int(e)
        u, v = int(tree.edges[e, 0]), int(tree.edges[e, 1])
        ru, rv = find(u), find(v)
        for r in (ru, rv):
            if top[r] != -1:
                parents[top[r]] = e
        uf_parent[ru] = rv
        top[rv] = e
    return parents


def mutant_dropped_tiebreak(tree: WeightedTree) -> np.ndarray:
    """Ranks by weight with ties in *reverse* id order (dropped tie-break)."""
    keys = np.lexsort((-np.arange(tree.m), tree.weights))
    return _uf_sld(tree, keys)


def mutant_grandparent_reattach(tree: WeightedTree) -> np.ndarray:
    """Correct SLD, then every node adopted by its grandparent."""
    parents = sequf(tree).copy()
    return parents[parents]


def mutant_label_tiebreak(tree: WeightedTree) -> np.ndarray:
    """Weight ties broken by endpoint labels: vertex-relabeling sensitive."""
    key = np.maximum(tree.edges[:, 0], tree.edges[:, 1])
    order = np.lexsort((key, tree.weights))
    return _uf_sld(tree, order)


def mutant_windowed_lost_update(tree: WeightedTree) -> np.ndarray:
    """Rank-ordered UF merge in windows of 8, each window hostile-permuted.

    Models workers that grab a window of the ready queue and apply its
    merges in whatever order the scheduler hands them, without the
    ownership discipline that would make same-window merges commute.
    """
    from repro.runtime.interleave import HostileSchedule

    schedule = HostileSchedule(7, delays=False)
    order = np.argsort(tree.ranks, kind="stable")
    permuted = np.empty_like(order)
    window = 8
    for lo in range(0, order.size, window):
        hi = min(lo + window, order.size)
        perm = np.asarray(schedule.permutation(hi - lo), dtype=np.int64)
        permuted[lo:hi] = order[lo:hi][perm]
    return _uf_sld(tree, permuted)


class _BrokenCarryPool(HeapPool):
    """HeapPool whose binary-carry link never compares keys.

    ``_rebuild`` below is the real one minus the ``key[b] < key[a]`` swap:
    whichever node was popped second becomes the root, so rebuilt trees can
    put larger keys above smaller ones.  Degrees, carry grouping, and spine
    *contents at rebuild time* all stay correct -- the corruption only
    surfaces later, when ``filter`` declines to descend below a root/child
    whose key clears the threshold and thereby misses sub-threshold nodes
    hidden underneath.
    """

    def _rebuild(self, nodes: list[int]) -> int:
        if not nodes:
            return -1
        degree = self.degree
        child = self.child
        sibling = self.sibling
        buckets: dict[int, list[int]] = {}
        max_deg = 0
        for t in nodes:
            d = degree[t]
            b = buckets.get(d)
            if b is None:
                buckets[d] = [t]
            else:
                b.append(t)
            if d > max_deg:
                max_deg = d
        roots: list[int] = []
        d = 0
        while d <= max_deg:
            bucket = buckets.get(d)
            if bucket:
                while len(bucket) >= 2:
                    a = bucket.pop()
                    b = bucket.pop()
                    # BUG: no key comparison -- 'a' roots unconditionally.
                    sibling[b] = child[a]
                    child[a] = b
                    degree[a] = d + 1
                    nb = buckets.get(d + 1)
                    if nb is None:
                        buckets[d + 1] = [a]
                    else:
                        nb.append(a)
                    if d + 1 > max_deg:
                        max_deg = d + 1
                if bucket:
                    roots.append(bucket[0])
            d += 1
        head = -1
        for t in reversed(roots):
            sibling[t] = head
            head = t
        return head


def mutant_heap_pool_broken_carry(tree: WeightedTree) -> np.ndarray:
    """Tree contraction on the heap pool with the broken carry link."""
    return tree_contraction_fast(tree, pool_cls=_BrokenCarryPool)


# ---------------------------------------------------------------------------
# Dynamic-engine mutants
# ---------------------------------------------------------------------------


def _unmerged_spines_engine(n: int, edges: np.ndarray, weights: np.ndarray) -> object:
    """Engine whose insert splice hangs the new edge under the lower spine
    head but never merges the two spines above it."""
    from repro.core.dynamic import DynamicSLD

    class _UnmergedSpines(DynamicSLD):
        def _merge(self, spines: list[np.ndarray]) -> tuple[list[int], list[int], int]:
            heads = [int(s[0]) for s in spines if s.size]
            return [], [], min(heads, key=lambda x: int(self._ranks[x]), default=-1)

    return _UnmergedSpines.from_graph(n, edges, weights)


def _no_rollback_engine(n: int, edges: np.ndarray, weights: np.ndarray) -> object:
    """Engine that keeps a failed batch's partial work applied."""
    from repro.core.dynamic import DynamicSLD

    class _NoRollback(DynamicSLD):
        def _rollback(self) -> None:
            pass

    return _NoRollback.from_graph(n, edges, weights)


# ---------------------------------------------------------------------------
# Streaming-MST mutant
# ---------------------------------------------------------------------------


def _streaming_dropped_window(path: "str | Path", chunk: int) -> "tuple[int, np.ndarray]":
    """Streaming Kruskal that drops the second filter window (window bug)."""
    from repro.errors import NotConnectedError
    from repro.io.edgefile import read_edge_header
    from repro.trees.mst import _Components, _FilterWindows

    n, _ = read_edge_header(path)
    forest = _Components(n)
    chosen = [np.empty(0, dtype=np.int64)]
    for index, window in enumerate(_FilterWindows(path, chunk, forest)):
        if index == 1:
            continue  # BUG: a whole filter window vanishes
        chosen.append(forest.contract(*window))
        if forest.count == 1:
            break
    if forest.count != 1:
        raise NotConnectedError(
            f"graph has {forest.count} connected components; cannot span {n} vertices"
        )
    return n, np.concatenate(chosen)


# ---------------------------------------------------------------------------
# io mutants: the pre-fix load_edges_csv, verbatim bug patterns
# ---------------------------------------------------------------------------


def _buggy_load_edges_csv(
    path: str | Path,
    has_header: bool | None,
    header_bug: bool = False,
    leak_bug: bool = False,
    loop_bug: bool = False,
) -> tuple[int, np.ndarray, np.ndarray]:
    from repro.io import FormatError, load_edges_csv

    if not (header_bug or leak_bug or loop_bug):
        return load_edges_csv(path, has_header=has_header)
    rows: list[tuple[int, int, float]] = []
    with open(path, newline="") as fh:
        first = True
        for i, row in enumerate(csv.reader(fh)):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if first:
                first = False
                skip = False
                if header_bug:
                    # Pre-fix: auto-detect even under has_header=True.
                    if has_header is not False:
                        try:
                            int(row[0])
                        except ValueError:
                            skip = True
                elif has_header or (has_header is None and not _is_int(row[0])):
                    skip = True
                if skip:
                    continue
            if len(row) < 2:
                raise FormatError(f"{path}: row {i + 1} has fewer than two columns")
            if leak_bug:
                u, v = int(row[0]), int(row[1])  # ValueError escapes
                w = float(row[2]) if len(row) >= 3 and row[2].strip() else 1.0
            else:
                u, v, w = _strict_cells(row, path, i)
            if not loop_bug and u == v:
                raise FormatError(f"{path}: row {i + 1} is a self loop at vertex {u}")
            rows.append((u, v, w))
    if not rows:
        raise FormatError(f"{path}: no edges found")
    edges = np.array([(u, v) for u, v, _ in rows], dtype=np.int64)
    if edges.min() < 0:
        raise FormatError(f"{path}: negative vertex id")
    if not loop_bug:
        canon = np.sort(edges, axis=1)
        if np.unique(canon, axis=0).shape[0] != canon.shape[0]:
            raise FormatError(f"{path}: duplicate edge")
    weights = np.array([w for _, _, w in rows], dtype=np.float64)
    return int(edges.max()) + 1, edges, weights


def _is_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _strict_cells(row: list[str], path: str | Path, i: int) -> tuple[int, int, float]:
    import math

    from repro.io import FormatError

    try:
        u, v = int(row[0]), int(row[1])
    except ValueError:
        raise FormatError(f"{path}: row {i + 1}: bad id cell") from None
    if u < 0 or v < 0:
        raise FormatError(f"{path}: row {i + 1} has a negative vertex id")
    w = 1.0
    if len(row) >= 3 and row[2].strip():
        try:
            w = float(row[2])
        except ValueError:
            raise FormatError(f"{path}: row {i + 1}: bad weight cell") from None
        if not math.isfinite(w):
            raise FormatError(f"{path}: row {i + 1}: non-finite weight")
    return u, v, w


# ---------------------------------------------------------------------------
# The mutant registry and the selftest driver
# ---------------------------------------------------------------------------


@dataclass
class Mutant:
    name: str
    domain: Domain  # a registry domain whose check runs the buggy code
    max_cases: int


def _override(
    name: str, domain: Domain, oracle: Callable[..., list], max_cases: int = 150, **kw: object
) -> Mutant:
    """``domain`` judged by ``oracle(case, **kw)``, which wraps the buggy code."""

    def check(case: object, rng: np.random.Generator) -> list:
        return oracle(case, **kw)

    return Mutant(name=name, domain=replace(domain, check=check), max_cases=max_cases)


def _differential(name: str, fn: Callable[[WeightedTree], np.ndarray]) -> Mutant:
    return _override(name, TREE, differential_check, algorithms={name: fn})


def _label_tiebreak_relations(case: TreeCase, rng: np.random.Generator) -> list:
    return relations_check(case, {"label-tiebreak": mutant_label_tiebreak}, rng)


def _csv(name: str, loader: LoadEdgesCsv) -> Mutant:
    return _override(name, CSV, io_csv_check, max_cases=400, loader=loader)


MUTANTS: tuple[Mutant, ...] = (
    _differential("dropped-tiebreak", mutant_dropped_tiebreak),
    _differential("grandparent-reattach", mutant_grandparent_reattach),
    # Oracle disabled: the leaf-relabeling relation alone must catch it.
    Mutant("label-tiebreak", replace(TREE, check=_label_tiebreak_relations), 150),
    _differential("heap-pool-broken-carry", mutant_heap_pool_broken_carry),
    _differential("windowed-lost-update", mutant_windowed_lost_update),
    _override(
        "dynamic-unmerged-spines", DYNAMIC, dynamic_check, engine_factory=_unmerged_spines_engine
    ),
    _override("dynamic-no-rollback", DYNAMIC, dynamic_check, engine_factory=_no_rollback_engine),
    _override(
        "streaming-dropped-window", GRAPH, mst_check, streaming_fn=_streaming_dropped_window
    ),
    _csv("csv-header-kept", partial(_buggy_load_edges_csv, header_bug=True)),
    _csv("csv-valueerror-leak", partial(_buggy_load_edges_csv, leak_bug=True)),
    _csv("csv-selfloop-accepted", partial(_buggy_load_edges_csv, loop_bug=True)),
)


@dataclass
class SelftestReport:
    seed: int
    caught: dict[str, str] = field(default_factory=dict)  # mutant -> check that fired
    missed: list[str] = field(default_factory=list)
    corpus_paths: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missed

    def format_lines(self) -> list[str]:
        lines = [f"fuzz selftest: seed={self.seed}, {len(MUTANTS)} injected mutant(s)"]
        for name, check in self.caught.items():
            lines.append(f"  caught {name} via {check}")
        for name in self.missed:
            lines.append(f"  MISSED {name}: no finding within its case budget")
        lines.append(
            "fuzz selftest: OK" if self.ok else f"fuzz selftest: {len(self.missed)} mutant(s) missed"
        )
        return lines


def run_selftest(
    seed: int = 0, corpus_dir: str | Path | None = None, shrink: bool = True
) -> SelftestReport:
    """Inject every mutant; each must be caught within its case budget.

    ``corpus_dir`` (used by tests) receives the shrunken repro for every
    caught mutant, exercising the corpus write path and the byte-stability
    guarantee end to end.
    """
    report = SelftestReport(seed=seed)
    for mutant in MUTANTS:
        sub = run_fuzz(
            seed=seed,
            max_cases=mutant.max_cases,
            corpus_dir=corpus_dir,
            domains=(mutant.domain,),
            shrink=shrink,
            stop_on_finding=True,
        )
        if sub.findings:
            report.caught[mutant.name] = sub.findings[0].check
            report.corpus_paths.extend(sub.corpus_paths)
        else:
            report.missed.append(mutant.name)
    return report
