"""Cophenetic distances: the merge height between pairs of leaves.

The cophenetic distance of vertices ``u`` and ``v`` is the weight of the
dendrogram node at which their clusters first merge -- the lowest common
ancestor of the two leaves, equivalently the minimax (bottleneck) path
weight between ``u`` and ``v`` in the input tree.  Spines are
rank-ascending, so the LCA is found by merging the two leaf spines until
they meet, in ``O(h)`` time once each leaf's node is read off its
vertex's incident edges (the tree's cached CSR adjacency), without any
dendrogram preprocessing.
"""

from __future__ import annotations

import numpy as np

from repro.dendrogram.structure import Dendrogram
from repro.structures.unionfind import UnionFind
from repro.trees.wtree import WeightedTree

__all__ = ["cophenetic_distance", "cophenetic_matrix"]


def _lca_edge(parents: np.ndarray, ranks: np.ndarray, a: int, b: int) -> int:
    """LCA node (edge id) of two dendrogram nodes, by rank-ordered walk."""
    while a != b:
        if ranks[a] < ranks[b]:
            nxt = int(parents[a])
            if nxt == a:
                raise ValueError("nodes do not share a root")  # pragma: no cover
            a = nxt
        else:
            nxt = int(parents[b])
            if nxt == b:
                raise ValueError("nodes do not share a root")  # pragma: no cover
            b = nxt
    return a


def _leaf_node(tree: WeightedTree, ranks: np.ndarray, v: int) -> int:
    """Dendrogram node vertex ``v`` hangs off: its minimum-rank incident
    edge (one vertex's row of :func:`repro.dendrogram.linkage.leaf_parents`)."""
    _, incident = tree.neighbors(v)
    return int(incident[np.argmin(ranks[incident])])


def cophenetic_distance(dend: Dendrogram, u: int, v: int) -> float:
    """Merge height of vertices ``u`` and ``v`` (``0.0`` when ``u == v``)."""
    tree = dend.tree
    if not (0 <= u < tree.n and 0 <= v < tree.n):
        raise ValueError(f"vertices must lie in [0, {tree.n}), got {u}, {v}")
    if u == v:
        return 0.0
    ranks = tree.ranks
    lca = _lca_edge(dend.parents, ranks, _leaf_node(tree, ranks, u), _leaf_node(tree, ranks, v))
    return float(tree.weights[lca])


def cophenetic_matrix(dend: Dendrogram) -> np.ndarray:
    """Dense ``(n, n)`` cophenetic distance matrix.

    Computed top-down in ``O(n^2)`` total: processing nodes in decreasing
    rank, each node's merge weight is assigned to every leaf pair it first
    joins.  Intended for the moderate ``n`` where a dense matrix is even
    representable; pairwise queries should use
    :func:`cophenetic_distance`.
    """
    tree = dend.tree
    n = tree.n
    out = np.zeros((n, n), dtype=np.float64)
    if tree.m == 0:
        return out
    # Process merges in increasing rank, maintaining cluster membership --
    # when edge e merges clusters A and B, every (a, b) pair first meets
    # at height w(e).  The A x B block is written as one vectorized
    # outer-index assignment per merge (O(|A| * |B|) cells but no Python
    # pair loop), and small-to-large extension keeps membership bookkeeping
    # at O(n log n) list appends overall.
    order = np.argsort(tree.ranks)
    members: dict[int, list[int]] = {v: [v] for v in range(n)}
    uf = UnionFind(n)
    for e in order:
        u, v = int(tree.edges[e, 0]), int(tree.edges[e, 1])
        ru, rv = uf.find(u), uf.find(v)
        A, B = members.pop(ru), members.pop(rv)
        w = float(tree.weights[e])
        out[np.ix_(A, B)] = w
        out[np.ix_(B, A)] = w
        r = uf.union(ru, rv)
        if len(A) < len(B):
            B.extend(A)
            members[r] = B
        else:
            A.extend(B)
            members[r] = A
    return out
