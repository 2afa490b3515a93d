"""End-to-end single-linkage clustering of point clouds.

The classic pipeline the paper's Section 2.3 describes: build a weighted
graph over the points, reduce to its minimum spanning tree (Gower & Ross),
compute the MST's single-linkage dendrogram with any of the package's
algorithms, and cut for flat clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.knn import complete_mst, knn_graph
from repro.core.api import resolve_algorithm, single_linkage_dendrogram
from repro.dendrogram.linkage import cut_height, cut_k, to_scipy_linkage
from repro.dendrogram.structure import Dendrogram
from repro.trees.mst import minimum_spanning_tree
from repro.trees.wtree import WeightedTree

__all__ = ["SingleLinkageResult", "single_linkage"]


@dataclass
class SingleLinkageResult:
    """Everything the pipeline produced, from graph to dendrogram."""

    points: np.ndarray
    mst: WeightedTree
    dendrogram: Dendrogram

    def linkage_matrix(self) -> np.ndarray:
        """SciPy-compatible ``(n-1, 4)`` linkage matrix."""
        return to_scipy_linkage(self.mst)

    def labels_at(self, threshold: float) -> np.ndarray:
        """Flat cluster labels merging all links of distance <= threshold."""
        return cut_height(self.mst, threshold)

    def labels_k(self, k: int) -> np.ndarray:
        """Flat cluster labels with exactly ``k`` clusters."""
        return cut_k(self.mst, k)


def single_linkage(
    points: np.ndarray,
    k: int | None = None,
    algorithm: str = "rctt",
    backend: str = "auto",
    **algorithm_options,
) -> SingleLinkageResult:
    """Single-linkage clustering of ``points``.

    Parameters
    ----------
    points:
        ``(n, d)`` array of coordinates.
    k:
        Use a symmetrized exact ``k``-NN graph (the scalable choice, and
        the paper's BigANN pipeline shape); ``None`` is exact single
        linkage: the complete graph's MST by a dense Prim
        (:func:`~repro.cluster.knn.complete_mst`, quadratic time, O(n)
        memory), the same tree the MST stage would build from
        :func:`~repro.cluster.knn.complete_graph`.
    algorithm:
        Dendrogram algorithm name (see :data:`repro.core.api.ALGORITHMS`).
    backend:
        Forwarded to the k-NN graph's MST stage and to the dendrogram stage
        (``"auto"`` / ``"reference"`` / ``"array"``, see
        :func:`repro.core.api.single_linkage_dendrogram`); every backend
        returns a bit-identical result.  ``(algorithm, backend)`` is
        checked before any work (:class:`~repro.errors.AlgorithmError`).
    """
    resolve_algorithm(algorithm, backend)
    pts = np.asarray(points, dtype=np.float64)
    if k is None:
        mst = complete_mst(pts)
    else:
        mst = minimum_spanning_tree(*knn_graph(pts, k), backend=backend)
    dend = single_linkage_dendrogram(
        mst, algorithm=algorithm, backend=backend, **algorithm_options
    )
    return SingleLinkageResult(points=pts, mst=mst, dendrogram=dend)
