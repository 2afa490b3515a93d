"""HDBSCAN*-style density clustering on top of the SLD algorithms.

The paper cites SLD computation as a sub-step of HDBSCAN* (Campello et
al.).  This lightweight variant implements the standard pipeline:

1. core distance of each point = distance to its ``min_samples``-th
   nearest neighbor;
2. mutual-reachability weight of an edge ``(u, v)`` =
   ``max(core(u), core(v), d(u, v))``;
3. MST of the mutual-reachability graph, then its single-linkage
   dendrogram;
4. flat clusters by cutting at ``cut_distance`` and discarding clusters
   smaller than ``min_cluster_size`` as noise (label ``-1``).

It is intentionally a simplification of full HDBSCAN* (no condensed-tree
stability selection); its role here is exercising the dendrogram stack on
a density-based workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.knn import pairwise_distances
from repro.core.api import single_linkage_dendrogram
from repro.dendrogram.structure import Dendrogram
from repro.errors import InvalidGraphError
from repro.structures.unionfind import UnionFind
from repro.trees.mst import minimum_spanning_tree
from repro.trees.wtree import WeightedTree

__all__ = ["hdbscan_lite", "HDBSCANResult"]


@dataclass
class HDBSCANResult:
    labels: np.ndarray  # -1 = noise
    core_distances: np.ndarray
    mst: WeightedTree
    dendrogram: Dendrogram
    n_clusters: int


def hdbscan_lite(
    points: np.ndarray,
    min_samples: int = 5,
    min_cluster_size: int = 5,
    cut_distance: float | None = None,
    algorithm: str = "rctt",
) -> HDBSCANResult:
    """Density-based clustering via mutual-reachability single linkage.

    When ``cut_distance`` is ``None``, the cut is placed automatically at
    the largest gap in the sorted MST edge weights (a common heuristic for
    separating intra-cluster from inter-cluster links).
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        raise InvalidGraphError(f"need at least two points, got {n}")
    if not 1 <= min_samples < n:
        raise InvalidGraphError(f"min_samples must be in [1, {n - 1}], got {min_samples}")

    dists = pairwise_distances(pts)
    np.fill_diagonal(dists, np.inf)
    core = np.partition(dists, min_samples - 1, axis=1)[:, min_samples - 1]

    iu, ju = np.triu_indices(n, k=1)
    edges = np.stack([iu, ju], axis=1).astype(np.int64)
    mreach = np.maximum(np.maximum(core[iu], core[ju]), dists[iu, ju])

    mst = minimum_spanning_tree(n, edges, mreach)
    dend = single_linkage_dendrogram(mst, algorithm=algorithm)

    if cut_distance is None:
        w = np.sort(mst.weights)
        if w.size >= 2:
            gaps = np.diff(w)
            cut_distance = float((w[np.argmax(gaps)] + w[np.argmax(gaps) + 1]) / 2.0)
        else:
            cut_distance = float(w[0]) if w.size else 0.0

    uf = UnionFind(n)
    for e in range(mst.m):
        if mst.weights[e] <= cut_distance:
            u, v = int(mst.edges[e, 0]), int(mst.edges[e, 1])
            if uf.find(u) != uf.find(v):
                uf.union(u, v)
    roots = np.array([uf.find(v) for v in range(n)])
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for r in np.unique(roots):
        members = np.flatnonzero(roots == r)
        if members.size >= min_cluster_size:
            labels[members] = next_label
            next_label += 1
    return HDBSCANResult(
        labels=labels,
        core_distances=core,
        mst=mst,
        dendrogram=dend,
        n_clusters=next_label,
    )
