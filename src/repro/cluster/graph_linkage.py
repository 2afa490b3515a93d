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
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.core.api import resolve_algorithm, single_linkage_dendrogram
from repro.dendrogram.structure import Dendrogram
from repro.trees.mst import minimum_spanning_tree
from repro.trees.validation import check_graph
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
    mst_method: str = "boruvka",
    backend: str = "auto",
    **algorithm_options,
) -> GraphLinkageResult:
    """Single-linkage dendrogram of a (possibly disconnected) graph.

    Components are bridged by artificial edges weighted above every real
    edge, so cutting the hierarchy at any real weight recovers the per-
    component clusterings and the top ``n_components - 1`` merges are the
    bridges.  Each component is represented by its smallest vertex, and
    the bridges chain those representatives in increasing order, so the
    bridges depend only on the component partition, not on edge order.
    ``backend`` is forwarded to the MST and dendrogram stages
    (every backend returns a bit-identical result); ``(algorithm,
    backend)`` is checked before any work.

    The MST stage (:func:`~repro.trees.mst.mst_ids`) picks its algorithm
    from the graph's density.  ``mst_method`` selects nothing: it is
    accepted only as ``"boruvka"``, for callers that still name it.
    """
    if mst_method != "boruvka":
        raise ValueError(
            f"unknown MST method {mst_method!r}: the MST stage picks its "
            "algorithm from the graph's density, and mst_method accepts "
            "only 'boruvka'"
        )
    resolve_algorithm(algorithm, backend)
    edges, weights = check_graph(n, edges, weights)
    ends = edges.reshape(-1, 2)
    ones = np.ones(ends.shape[0], dtype=np.int8)
    n_components, labels = connected_components(
        coo_matrix((ones, (ends[:, 0], ends[:, 1])), shape=(n, n)), directed=False
    )

    bridge_rows = np.zeros((0, 2), dtype=np.int64)
    if n_components > 1:
        reps = np.sort(np.unique(labels, return_index=True)[1])  # smallest vertices
        bridge_rows = np.stack([reps[:-1], reps[1:]], axis=1)
        base = float(weights.max()) + 1.0 if weights.size else 1.0
        edges = np.concatenate([ends, bridge_rows])
        weights = np.concatenate([weights, base + np.arange(n_components - 1, dtype=np.float64)])

    mst = minimum_spanning_tree(n, edges, weights, backend=backend)
    dend = single_linkage_dendrogram(
        mst, algorithm=algorithm, backend=backend, **algorithm_options
    )

    if bridge_rows.size:
        # Bridge recovery, vectorized: match the MST's undirected endpoint
        # keys against the artificial rows (keys are unique -- the input
        # may not duplicate a bridge pair, bridges join distinct
        # components).
        lo = np.minimum(mst.edges[:, 0], mst.edges[:, 1])
        hi = np.maximum(mst.edges[:, 0], mst.edges[:, 1])
        keys = lo * n + hi
        bkeys = np.sort(bridge_rows[:, 0] * n + bridge_rows[:, 1])
        pos = np.minimum(np.searchsorted(bkeys, keys), bkeys.size - 1)
        bridges = np.flatnonzero(bkeys[pos] == keys).astype(np.int64)
    else:
        bridges = np.zeros(0, dtype=np.int64)
    return GraphLinkageResult(
        mst=mst, dendrogram=dend, n_components=n_components, bridge_edges=bridges
    )
