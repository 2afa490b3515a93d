"""Neighborhood-graph construction for point clouds.

The paper's BigANN input is an approximate k-NN graph over SIFT
descriptors built with DiskANN; the single-core substitute here is an
exact, vectorized k-NN over synthetic point clouds (DESIGN.md Section 1).
Distances are Euclidean; the k-NN graph is symmetrized (an edge appears if
either endpoint selects the other) and, when requested, made connected by
bridging components at their closest point pairs -- the same guarantee an
ANN-graph + MST pipeline needs.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.checkers.ownership import owns
from repro.errors import InvalidGraphError

__all__ = ["knn_graph", "complete_graph", "pairwise_distances"]


def pairwise_distances(
    points: np.ndarray, chunk: int = 1024, workers: int | None = 1
) -> np.ndarray:
    """Dense Euclidean distance matrix, computed in row chunks.

    ``workers > 1`` computes chunks on a thread pool: the matmul/sqrt
    kernels release the GIL, so this is the one place in the package where
    OS threads yield real speedup on multicore hosts (the rest of the
    parallelism story runs through the cost model; see DESIGN.md §1).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidGraphError(f"points must be 2-D (n, d), got shape {pts.shape}")
    n = pts.shape[0]
    sq = np.einsum("ij,ij->i", pts, pts)
    out = np.empty((n, n), dtype=np.float64)

    # Each pool worker owns the disjoint row partition out[lo:hi]; the
    # declaration is what licenses running fill on concurrent threads.
    @owns("out[lo:hi]")
    def fill(lo: int, hi: int) -> None:
        for block_lo in range(lo, hi, chunk):
            block_hi = min(block_lo + chunk, hi)
            block = sq[block_lo:block_hi, None] + sq[None, :] - 2.0 * (
                pts[block_lo:block_hi] @ pts.T
            )
            np.maximum(block, 0.0, out=block)
            np.sqrt(block, out=out[block_lo:block_hi])

    from repro.runtime.pool import parallel_for

    parallel_for(fill, n, workers=workers, grain=chunk)
    # The expansion x^2+y^2-2xy leaves O(eps) noise on the diagonal; pin it.
    np.fill_diagonal(out, 0.0)
    return out


def complete_graph(points: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """All-pairs graph ``(n, edges, weights)`` with Euclidean weights."""
    dists = pairwise_distances(points)
    n = dists.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    edges = np.stack([iu, ju], axis=1).astype(np.int64)
    return n, edges, dists[iu, ju]


def knn_graph(
    points: np.ndarray,
    k: int,
    ensure_connected: bool = True,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Symmetrized exact k-NN graph ``(n, edges, weights)``.

    Each point contributes edges to its ``k`` nearest neighbors; duplicate
    (mutual) pairs are merged.  With ``ensure_connected`` (default), any
    remaining components are bridged at their closest point pairs so the
    MST reduction can span the cloud.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        raise InvalidGraphError(f"need at least two points, got {n}")
    if not 1 <= k < n:
        raise InvalidGraphError(f"k must be in [1, {n - 1}], got {k}")
    dists = pairwise_distances(pts)
    np.fill_diagonal(dists, np.inf)
    nbrs = np.argpartition(dists, k, axis=1)[:, :k]

    # Symmetrize + dedupe in one vectorized pass: undirected pair keys
    # a*n+b (a < b) over all n*k selections, np.unique for the sorted
    # distinct pairs.  Matches the dict-based reference exactly -- its
    # iteration over sorted keys is the same ascending key order, and the
    # distance matrix is symmetric so either orientation's weight agrees.
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = np.ascontiguousarray(nbrs, dtype=np.int64).ravel()
    keys = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    ea = keys // n
    eb = keys - ea * n
    edges = np.stack([ea, eb], axis=1)
    weights = dists[ea, eb]

    if ensure_connected:
        extra_e, extra_w = _bridge_components(n, edges, dists)
        if extra_e:
            edges = np.concatenate([edges, np.asarray(extra_e, dtype=np.int64)])
            weights = np.concatenate([weights, np.asarray(extra_w, dtype=np.float64)])
    return n, edges, weights


def _bridge_components(
    n: int, edges: np.ndarray, dists: np.ndarray
) -> tuple[list[list[int]], list[float]]:
    """Closest-pair bridges between connected components.

    One ``connected_components`` pass labels the components; each bridge
    then joins component 0 to its closest point outside it and relabels
    the absorbed component (the loop runs once per component, not per
    vertex); the tests keep the scalar original as the oracle.
    """
    ones = np.ones(edges.shape[0], dtype=np.int8)
    ncomp, labels = connected_components(
        coo_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(n, n)), directed=False
    )
    extra_e: list[list[int]] = []
    extra_w: list[float] = []
    for _ in range(ncomp - 1):
        comp0 = np.flatnonzero(labels == labels[0])
        rest = np.flatnonzero(labels != labels[0])
        block = dists[np.ix_(comp0, rest)]
        a, b = np.unravel_index(np.argmin(block), block.shape)
        u, v = int(comp0[a]), int(rest[b])
        extra_e.append([u, v])
        extra_w.append(float(dists[u, v]))
        labels[labels == labels[v]] = labels[0]
    return extra_e, extra_w
