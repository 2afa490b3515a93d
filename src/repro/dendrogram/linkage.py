"""SciPy interop and flat clusterings.

``to_scipy_linkage`` replays the single-linkage merge sequence (edges in
rank order) to produce the standard ``(n-1, 4)`` linkage matrix ``Z`` used
by :mod:`scipy.cluster.hierarchy` -- row ``i`` merges clusters ``Z[i,0]``
and ``Z[i,1]`` at height ``Z[i,2]`` into new cluster ``n+i`` of size
``Z[i,3]``.  The flat-clustering helpers cut the hierarchy by distance
threshold or target cluster count.
"""

from __future__ import annotations

import numpy as np

from repro.structures.unionfind import UnionFind
from repro.trees.wtree import WeightedTree

__all__ = ["to_scipy_linkage", "leaf_parents", "cut_height", "cut_k", "canonical_labels"]


def to_scipy_linkage(tree: WeightedTree) -> np.ndarray:
    """SciPy linkage matrix of the tree's single-linkage hierarchy."""
    n, m = tree.n, tree.m
    Z = np.zeros((m, 4), dtype=np.float64)
    order = np.argsort(tree.ranks)
    uf = UnionFind(n)
    cluster_id = np.arange(n, dtype=np.int64)  # uf-root vertex -> scipy cluster id
    for i, e in enumerate(order):
        u, v = int(tree.edges[e, 0]), int(tree.edges[e, 1])
        ru, rv = uf.find(u), uf.find(v)
        ca, cb = int(cluster_id[ru]), int(cluster_id[rv])
        if ca > cb:
            ca, cb = cb, ca
        w = uf.union(ru, rv)
        Z[i, 0] = ca
        Z[i, 1] = cb
        Z[i, 2] = tree.weights[e]
        Z[i, 3] = uf.set_size(w)
        cluster_id[w] = n + i
    return Z


def leaf_parents(tree: WeightedTree) -> np.ndarray:
    """Dendrogram node (edge id) each input vertex hangs off.

    Vertex ``v``'s leaf attaches under the node of the minimum-rank edge
    incident to ``v`` -- the first merge that absorbs the singleton cluster
    ``{v}``: one segmented minimum of the edge ranks over the adjacency
    rows.  A single vertex (``n == 1``) hangs off nothing and yields ``-1``.
    """
    if tree.m == 0:
        return np.full(tree.n, -1, dtype=np.int64)
    offsets, _, nbr_edge = tree.adjacency()
    ranks = tree.ranks
    # Every row is non-empty: in a tree with an edge, each vertex has one.
    lowest = np.minimum.reduceat(ranks[nbr_edge], offsets[:-1])
    edge_of_rank = np.empty(tree.m, dtype=np.int64)
    edge_of_rank[ranks] = np.arange(tree.m, dtype=np.int64)
    return edge_of_rank[lowest]


def cut_height(tree: WeightedTree, threshold: float) -> np.ndarray:
    """Flat cluster labels after merging every edge with weight <= threshold.

    Labels are consecutive integers starting at 0, ordered by each
    cluster's smallest vertex id.
    """
    uf = UnionFind(tree.n)
    for e in range(tree.m):
        if tree.weights[e] <= threshold:
            u, v = int(tree.edges[e, 0]), int(tree.edges[e, 1])
            if uf.find(u) != uf.find(v):
                uf.union(u, v)
    return _labels(uf, tree.n)


def cut_k(tree: WeightedTree, k: int) -> np.ndarray:
    """Flat cluster labels with exactly ``k`` clusters.

    Merges the ``n - k`` lowest-rank edges; the surviving cuts are the
    ``k - 1`` heaviest single-linkage merge distances.
    """
    if not 1 <= k <= tree.n:
        raise ValueError(f"cluster count k must be in [1, {tree.n}], got {k}")
    uf = UnionFind(tree.n)
    order = np.argsort(tree.ranks)
    for e in order[: tree.n - k]:
        u, v = int(tree.edges[e, 0]), int(tree.edges[e, 1])
        uf.union(u, v)
    return _labels(uf, tree.n)


def _labels(uf: UnionFind, n: int) -> np.ndarray:
    roots = uf.find_many(np.arange(n, dtype=np.int64))
    return canonical_labels(roots)


def canonical_labels(keys: np.ndarray) -> np.ndarray:
    """Dense cluster labels from per-vertex cluster keys.

    Clusters are numbered by their smallest member vertex id (equivalently
    first occurrence), independent of the key values -- the documented
    ``cut_height``/``cut_k`` labeling.  The previous implementation sorted
    by union-find root id, which is an internal artifact of the union
    order and silently violated that contract.
    """
    keys = np.asarray(keys)
    uniq, inverse = np.unique(keys, return_inverse=True)
    inverse = inverse.reshape(-1)
    first = np.full(uniq.shape[0], keys.shape[0], dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(keys.shape[0], dtype=np.int64))
    renumber = np.empty(uniq.shape[0], dtype=np.int64)
    renumber[np.argsort(first, kind="stable")] = np.arange(uniq.shape[0], dtype=np.int64)
    return renumber[inverse]
