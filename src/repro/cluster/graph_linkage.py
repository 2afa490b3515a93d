"""Single-linkage clustering of arbitrary weighted graphs.

The general form of the Gower-Ross reduction (paper Section 2.3): the
single-linkage hierarchy of a weighted graph equals that of its minimum
spanning tree, and disconnected graphs are clustered per component.  This
module handles the disconnected case explicitly by bridging components
with ``+inf``-like weights (heavier than everything else), so component
structure is preserved at every finite cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import resolve_algorithm, single_linkage_dendrogram
from repro.dendrogram.structure import Dendrogram
from repro.errors import InvalidGraphError
from repro.structures.unionfind import UnionFind
from repro.trees.mst import minimum_spanning_tree
from repro.trees.wtree import WeightedTree

__all__ = ["graph_single_linkage", "GraphLinkageResult"]


@dataclass
class GraphLinkageResult:
    """Dendrogram of a weighted graph plus its spanning structure."""

    mst: WeightedTree
    dendrogram: Dendrogram
    n_components: int
    bridge_edges: np.ndarray  # ids (within mst) of artificial bridges

    def labels_at(self, threshold: float) -> np.ndarray:
        """Flat clusters at ``threshold``; bridges never merge below it."""
        from repro.dendrogram.linkage import cut_height

        return cut_height(self.mst, threshold)


def graph_single_linkage(
    n: int,
    edges: np.ndarray,
    weights: np.ndarray,
    algorithm: str = "rctt",
    mst_method: str = "kruskal",
    backend: str = "auto",
    **algorithm_options,
) -> GraphLinkageResult:
    """Single-linkage dendrogram of a (possibly disconnected) graph.

    Components are bridged by artificial edges weighted above every real
    edge, so cutting the hierarchy at any real weight recovers the per-
    component clusterings and the top ``n_components - 1`` merges are the
    bridges.  ``backend`` is forwarded to the MST and dendrogram stages
    (every backend returns a bit-identical result); ``(algorithm,
    backend)`` is checked before any work.
    """
    resolve_algorithm(algorithm, backend)
    edges = np.asarray(edges, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if edges.ndim != 2 or (edges.size and edges.shape[1] != 2):
        raise InvalidGraphError(f"edges must have shape (m, 2), got {edges.shape}")
    if weights.shape != (edges.shape[0],):
        raise InvalidGraphError("need exactly one weight per edge")

    uf = UnionFind(n)
    _union_components(uf, edges)
    n_components = uf.num_sets

    bridge_rows: list[list[int]] = []
    if n_components > 1:
        reps = sorted(int(r) for r in uf.roots())
        base = float(weights.max()) + 1.0 if weights.size else 1.0
        for i, (a, b) in enumerate(zip(reps[:-1], reps[1:])):
            bridge_rows.append([a, b])
        bridge_edges = np.asarray(bridge_rows, dtype=np.int64)
        bridge_weights = base + np.arange(len(bridge_rows), dtype=np.float64)
        edges = np.concatenate([edges, bridge_edges]) if edges.size else bridge_edges
        weights = np.concatenate([weights, bridge_weights])

    mst = minimum_spanning_tree(n, edges, weights, method=mst_method, backend=backend)
    dend = single_linkage_dendrogram(
        mst, algorithm=algorithm, backend=backend, **algorithm_options
    )

    if bridge_rows:
        # Bridge recovery, vectorized: match the MST's undirected endpoint
        # keys against the artificial rows (keys are unique -- the input
        # may not duplicate a bridge pair, bridges join distinct
        # components).
        lo = np.minimum(mst.edges[:, 0], mst.edges[:, 1])
        hi = np.maximum(mst.edges[:, 0], mst.edges[:, 1])
        keys = lo * n + hi
        brows = np.asarray(bridge_rows, dtype=np.int64)
        bkeys = np.sort(brows[:, 0] * n + brows[:, 1])
        pos = np.minimum(np.searchsorted(bkeys, keys), bkeys.size - 1)
        bridges = np.flatnonzero(bkeys[pos] == keys).astype(np.int64)
    else:
        bridges = np.zeros(0, dtype=np.int64)
    return GraphLinkageResult(
        mst=mst, dendrogram=dend, n_components=n_components, bridge_edges=bridges
    )


def _union_components(uf: UnionFind, edges: np.ndarray) -> None:
    """Union every edge's endpoints, in batches (connectivity only).

    Component structure is order-independent, so a vectorized
    ``find_many`` pre-filter drops the bulk of each batch and only the
    surviving (possibly stale) candidates hit the scalar union loop.
    """
    chunk = 8192
    for start in range(0, edges.shape[0], chunk):
        batch = edges[start : start + chunk]
        ru = uf.find_many(batch[:, 0])
        rv = uf.find_many(batch[:, 1])
        cross = ru != rv
        for a, b in zip(ru[cross].tolist(), rv[cross].tolist()):
            if uf.find(a) != uf.find(b):
                uf.union(a, b)
