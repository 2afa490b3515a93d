"""SeqUF: the sequential Kruskal-style union-find baseline (paper Section 1).

Edges are sorted by rank, then merged one at a time; a per-cluster "top
node" records the most recent merge inside each cluster so the new node can
adopt it.  This is the algorithm Wang et al. shipped and the baseline every
speedup in the paper (and in our Table 1 reproduction) is measured against.

Parallelism note: as in the paper, the only parallelizable step is the
initial sort, which is charged at parallel-sample-sort cost; the merge loop
is charged sequentially (depth = work).  That is why SeqUF's simulated
scaling curves stay nearly flat (Figure 6).

Fast path: with instrumentation inactive (no ``tracker`` and no
shadow-access recorder installed) the merge loop runs over plain
Python lists with the union-find inlined -- identical semantics (path
halving, union by size with the same tie-breaking) but none of the numpy
scalar-indexing or per-call charging overhead, which is worth ~4x on the
merge loop.  ``repro.bench`` regression-tests both the speedup and the
bit-identical output.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.runtime.cost_model import CostTracker, WorkDepth, comparison_sort_cost, instrumented
from repro.runtime.instrumentation import span
from repro.structures.unionfind import UnionFind
from repro.trees.wtree import WeightedTree

__all__ = ["sequf"]


@cost_bound(
    work="n * log(n)",
    depth="n",
    vars=("n",),
    theorem="Section 1 / Table 1 baseline: O(n log n) sort + sequential merge loop",
)
def sequf(tree: WeightedTree, tracker: CostTracker | None = None) -> np.ndarray:
    """Parent array of the SLD, by sequential union-find merging."""
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m == 0:
        return parents

    with span("sort"):
        order = np.argsort(tree.ranks, kind="stable")
        if tracker is not None:
            tracker.add(comparison_sort_cost(m))

    if not instrumented(tracker):
        with span("merge"):
            _merge_fast(tree, order, parents)
        return parents

    with span("merge"):
        edges = tree.edges
        uf = UnionFind(tree.n)
        # top[r] = most recent merge node inside the cluster rooted at r.
        top = np.full(tree.n, -1, dtype=np.int64)
        for e in order:
            e = int(e)
            u, v = int(edges[e, 0]), int(edges[e, 1])
            ru, rv = uf.find(u), uf.find(v)
            tu, tv = int(top[ru]), int(top[rv])
            if tu != -1:
                parents[tu] = e
            if tv != -1:
                parents[tv] = e
            w = uf.union(ru, rv)
            top[w] = e
        if tracker is not None:
            # The merge loop is inherently sequential: m iterations of O(1)
            # amortized union-find work (true find steps are counted).
            loop_work = float(m + uf.find_steps)
            tracker.add(WorkDepth(loop_work, loop_work))
    return parents


@cost_bound(
    work="n",
    depth="n",
    vars=("n",),
    kind="helper",
    theorem="same sequential merge loop; amortized-O(1) union-find per edge",
)
def _merge_fast(tree: WeightedTree, order: np.ndarray, parents: np.ndarray) -> None:
    """Uninstrumented merge loop: inlined list-based union-find.

    Must stay operation-for-operation equivalent to the instrumented loop in
    :func:`sequf` (path halving, union by size, ``size[ra] < size[rb]``
    swap) so both paths return bit-identical dendrograms -- enforced by
    ``tests/test_disabled_tracker.py``.
    """
    n = tree.n
    edges = tree.edges
    eu = edges[:, 0].tolist()
    ev = edges[:, 1].tolist()
    parent = list(range(n))
    size = [1] * n
    top = [-1] * n
    out = parents.tolist()
    for e in order.tolist():
        u = eu[e]
        v = ev[e]
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            raise ValueError(f"union of already-connected elements at edge {e}")
        tu = top[u]
        tv = top[v]
        if tu != -1:
            out[tu] = e
        if tv != -1:
            out[tv] = e
        if size[u] < size[v]:
            u, v = v, u
        parent[v] = u
        size[u] += size[v]
        top[u] = e
    parents[:] = out
