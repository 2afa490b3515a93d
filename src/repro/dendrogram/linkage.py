"""SciPy interop and flat clusterings.

``linkage_from_merges`` replays a merge sequence to produce the standard
``(n-1, 4)`` linkage matrix ``Z`` used by :mod:`scipy.cluster.hierarchy`
-- row ``i`` merges clusters ``Z[i,0]`` and ``Z[i,1]`` at height
``Z[i,2]`` into new cluster ``n+i`` of size ``Z[i,3]``.
``to_scipy_linkage`` feeds it the single-linkage merges (edges in rank
order); the NN-chain HAC feeds it its merges sorted by height.  The
flat-clustering helpers cut the hierarchy by distance threshold or target
cluster count.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.structures.unionfind import UnionFind
from repro.trees.wtree import WeightedTree

__all__ = [
    "to_scipy_linkage",
    "linkage_from_merges",
    "leaf_parents",
    "cut_height",
    "cut_k",
    "canonical_labels",
]


def to_scipy_linkage(tree: WeightedTree) -> np.ndarray:
    """SciPy linkage matrix of the tree's single-linkage hierarchy."""
    order = np.argsort(tree.ranks)
    merges = zip(
        tree.edges[order, 0].tolist(),
        tree.edges[order, 1].tolist(),
        tree.weights[order].tolist(),
    )
    return linkage_from_merges(tree.n, merges)


def linkage_from_merges(n: int, merges: Iterable[tuple[int, int, float]]) -> np.ndarray:
    """SciPy linkage matrix of the ``n - 1`` merges of ``n`` points, in order.

    Each ``(a, b, height)`` joins the clusters holding points ``a`` and
    ``b``; its row names the two by SciPy cluster id, smaller first, and
    records the merged cluster's size.
    """
    Z = np.zeros((n - 1, 4), dtype=np.float64)
    uf = UnionFind(n)
    cluster_id = np.arange(n, dtype=np.int64)  # uf-root point -> scipy cluster id
    for i, (a, b, height) in enumerate(merges):
        ra, rb = uf.find(a), uf.find(b)
        ca, cb = int(cluster_id[ra]), int(cluster_id[rb])
        if ca > cb:
            ca, cb = cb, ca
        r = uf.union(ra, rb)
        Z[i] = (ca, cb, height, uf.set_size(r))
        cluster_id[r] = n + i
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
    return _component_labels(tree, tree.weights <= threshold)


def cut_k(tree: WeightedTree, k: int) -> np.ndarray:
    """Flat cluster labels with exactly ``k`` clusters.

    Merges the ``n - k`` lowest-rank edges; the surviving cuts are the
    ``k - 1`` heaviest single-linkage merge distances.
    """
    if not 1 <= k <= tree.n:
        raise ValueError(f"cluster count k must be in [1, {tree.n}], got {k}")
    return _component_labels(tree, tree.ranks < tree.n - k)


def _component_labels(tree: WeightedTree, keep: np.ndarray) -> np.ndarray:
    """Canonical labels of the components the ``keep`` edges span."""
    edges = tree.edges[keep]
    graph = coo_matrix(
        (np.ones(edges.shape[0], dtype=np.int8), (edges[:, 0], edges[:, 1])),
        shape=(tree.n, tree.n),
    )
    _, components = connected_components(graph, directed=False)
    return canonical_labels(components)


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
