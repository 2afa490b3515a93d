"""Divide-and-conquer over edge weights (the Wang et al. [41] structure).

The prior state of the art the paper improves on computes the SLD by
divide-and-conquer over the *weights*: split the edges at the median rank;
the low half forms a subforest whose components merge entirely before any
high edge; solve each low component recursively, contract each component
to a supervertex, and solve the high half on the contracted tree.  Two
gluing facts make this correct:

* within a low component, the SLD is independent of the rest of the tree
  (all external incident edges have higher rank -- Lemma 3.2);
* the parent of a low component's dendrogram *root* is the node of the
  minimum-rank edge incident to the contracted supervertex (Lemma 4.2:
  the first merge involving the fully-merged component cluster).

Wang et al. implement the contraction step with the Euler-tour technique
and semisorting (randomized; per the paper, not consistently faster than
SeqUF in practice, which is the paper's motivation).  This reproduction
uses union-find-based contraction, giving ``O(n log n)`` work over an
``O(log n)``-level recursion -- work-efficient w.r.t. SeqUF but *not*
output-sensitive, exactly the role this algorithm plays in the paper's
comparison landscape.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.runtime.cost_model import CostTracker, WorkDepth, combine_parallel
from repro.runtime.instrumentation import span
from repro.structures.unionfind import UnionFind
from repro.trees.wtree import WeightedTree
from repro.util import log2ceil

__all__ = ["sld_weight_dc"]


@cost_bound(
    work="n * log(n)",
    depth="log(n)**2",
    vars=("n",),
    theorem="Wang et al. [41] structure: O(log n) weight-median levels, "
    "work-efficient w.r.t. SeqUF but not output-sensitive",
)
def sld_weight_dc(
    tree: WeightedTree,
    tracker: CostTracker | None = None,
    base_size: int = 8,
) -> np.ndarray:
    """Parent array of the SLD, by divide-and-conquer over weights.

    ``base_size`` bounds the recursion base case, which is solved by the
    direct sequential merge (SeqUF without the sort -- edges arrive
    pre-ranked).
    """
    if base_size < 1:
        raise ValueError(f"base_size must be >= 1, got {base_size}")
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m == 0:
        return parents
    with span("solve"):
        order = np.argsort(tree.ranks)
        # Scratch endpoint table: recursion levels temporarily overwrite the
        # high half's endpoints with contracted supervertex labels and
        # restore them on the way out.
        scratch = tree.edges.copy()
        cost = _solve(scratch, [int(e) for e in order], parents, tree.n, base_size)
        if tracker is not None:
            tracker.add(cost)
    return parents


@cost_bound(
    work="n * log(n)",
    depth="log(n)**2",
    vars=("n",),
    kind="helper",
    theorem="Wang et al. [41]: halve at the median rank, contract, recurse",
)
def _solve(
    edges: np.ndarray,
    sorted_eids: list[int],
    parents: np.ndarray,
    n_labels: int,
    base_size: int,
) -> WorkDepth:
    """Solve the SLD of the (contracted) tree spanned by ``sorted_eids``.

    ``edges[e]`` holds the current supervertex labels of edge ``e``;
    ``sorted_eids`` is rank-ascending.  Sets ``parents`` for every listed
    edge except the subproblem root (left self-pointing for the caller).
    """
    k = len(sorted_eids)
    if k <= base_size:
        return _solve_base(edges, sorted_eids, parents, n_labels)

    half = k // 2
    low = sorted_eids[:half]
    high = sorted_eids[half:]

    # Components of the low subforest, via union-find over supervertices.
    uf = UnionFind(n_labels)
    for e in low:
        uf.union(int(edges[e, 0]), int(edges[e, 1]))
    comp_edges: dict[int, list[int]] = {}
    for e in low:
        comp_edges.setdefault(uf.find(int(edges[e, 0])), []).append(e)

    # Solve each low component recursively (independent, hence parallel).
    comp_costs: list[WorkDepth] = []
    # supervertex -> that component's dendrogram root (its max-rank edge)
    pending: dict[int, int] = {}
    for r, eids in comp_edges.items():
        comp_costs.append(_solve(edges, eids, parents, n_labels, base_size))
        pending[r] = eids[-1]

    # Contract: relabel the high edges' endpoints by component supervertex,
    # then solve the high half on the contracted tree.
    saved = edges[high].copy()
    for e in high:
        edges[e, 0] = uf.find(int(edges[e, 0]))
        edges[e, 1] = uf.find(int(edges[e, 1]))
    high_cost = _solve(edges, high, parents, n_labels, base_size)

    # Glue (Lemma 4.2): each component root's parent is the first (min
    # rank) high edge incident to its supervertex.
    glue_work = 0.0
    for e in high:
        if not pending:
            break
        glue_work += 1.0
        for s in (int(edges[e, 0]), int(edges[e, 1])):
            root = pending.pop(s, None)
            if root is not None:
                parents[root] = e
    edges[high] = saved

    split_cost = WorkDepth(float(k), float(2 * log2ceil(max(k, 2))))
    glue_cost = WorkDepth(glue_work, float(log2ceil(max(len(high), 2))))
    children = combine_parallel(comp_costs + [high_cost])
    return split_cost + children + glue_cost


def _solve_base(
    edges: np.ndarray,
    sorted_eids: list[int],
    parents: np.ndarray,
    n_labels: int,
) -> WorkDepth:
    """Direct sequential merge of a small pre-sorted edge list."""
    uf = UnionFind(n_labels)
    top: dict[int, int] = {}
    for e in sorted_eids:
        u, v = int(edges[e, 0]), int(edges[e, 1])
        ru, rv = uf.find(u), uf.find(v)
        tu, tv = top.pop(ru, None), top.pop(rv, None)
        if tu is not None:
            parents[tu] = e
        if tv is not None:
            parents[tv] = e
        w = uf.union(ru, rv)
        top[w] = e
    return WorkDepth.seq(float(2 * len(sorted_eids)))
