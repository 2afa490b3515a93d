"""Neighborhood-graph construction for point clouds.

The paper's BigANN input is an approximate k-NN graph over SIFT
descriptors built with DiskANN; the single-core substitute here is an
exact, vectorized k-NN over synthetic point clouds (DESIGN.md Section 1).
Distances are Euclidean; the k-NN graph is symmetrized (an edge appears if
either endpoint selects the other) and, when requested, made connected by
bridging components at their closest point pairs -- the same guarantee an
ANN-graph + MST pipeline needs.

Every distance comes from one formula, :func:`_distance_rows`, run on the
aligned row blocks ``0:1024, 1024:2048, ...``.  BLAS rounds a row
differently inside a different row window, and the dense matrix need not
be exactly symmetric when the last block is ragged, so the blocks fix every
weight's bits: a k-NN edge ``(a, b)``, ``a < b``, is weighted from row
``a``.  :func:`knn_graph` never holds an n x n array.  It streams the
blocks once to select neighbors and, if the graph is disconnected, once
more to bridge it, in O(n*k + 1024*n) memory plus O(C*n) for C components.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.errors import InvalidGraphError

__all__ = ["knn_graph", "complete_graph", "pairwise_distances"]

#: Rows per aligned distance block.
_BLOCK = 1024
#: Rows per elementwise tile inside a block (32 rows x n stays in cache).
_TILE = 32


def _as_points(points: np.ndarray) -> np.ndarray:
    """``points`` as a float64 ``(n, d)`` array of finite coordinates."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidGraphError(f"points must be 2-D (n, d), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidGraphError("points must have finite coordinates (no NaN or inf)")
    return pts


def _distance_rows(
    pts: np.ndarray, sq: np.ndarray, lo: int, hi: int, out: np.ndarray
) -> np.ndarray:
    """Euclidean distances from points ``lo:hi`` to every point, written
    into ``out`` (shape ``(hi - lo, n)``) and returned.

    ``sq`` holds the squared norms.  The one formula is
    ``sq[lo:hi, None] + sq - 2 * (pts[lo:hi] @ pts.T)``, clamped at 0 (the
    expansion can dip below zero by rounding), then ``sqrt``.  The matmul
    runs over the whole row window, which fixes its rounding; the
    elementwise passes run a cache-sized tile of rows at a time.
    """
    np.matmul(pts[lo:hi], pts.T, out=out)
    for t in range(lo, hi, _TILE):
        t_hi = min(t + _TILE, hi)
        tile = out[t - lo : t_hi - lo]
        tile *= 2.0
        np.subtract(sq[t:t_hi, None] + sq, tile, out=tile)
        np.maximum(tile, 0.0, out=tile)
        np.sqrt(tile, out=tile)
    return out


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix, filled one aligned row block at a time.

    ``points`` must be a 2-D array of finite coordinates, else
    :class:`~repro.errors.InvalidGraphError`.  Each row comes from the
    same :func:`_distance_rows` block that :func:`knn_graph` streams, so
    the two agree bit for bit.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    sq = np.einsum("ij,ij->i", pts, pts)
    out = np.empty((n, n), dtype=np.float64)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        _distance_rows(pts, sq, lo, hi, out[lo:hi])
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
    (mutual) pairs are merged into one edge ``(a, b)``, ``a < b``, in
    ascending order, weighted from row ``a``.  With ``ensure_connected``
    (default), any remaining components are bridged at their closest
    point pairs (:func:`_bridge_components`) so the MST reduction can span
    the cloud.

    The aligned distance blocks are visited last block first: when row
    ``a``'s block is live, every row ``b > a`` has already chosen its
    neighbors, so every pair weighted from that block is known.  Live
    memory is one ``1024 x n`` block and its ``argpartition`` plus O(n*k)
    pairs.  The output is bit-identical to selecting from, and weighting
    with, the dense :func:`pairwise_distances` matrix.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise InvalidGraphError(f"need at least two points, got {n}")
    if not 1 <= k < n:
        raise InvalidGraphError(f"k must be in [1, {n - 1}], got {k}")
    sq = np.einsum("ij,ij->i", pts, pts)

    # pending: keys a*n+b (a < b) of the selected pairs not yet weighted.
    # Once block lo:hi has chosen, every pair with a >= lo is known.
    pending = np.empty(0, dtype=np.int64)
    key_parts: list[np.ndarray] = []
    weight_parts: list[np.ndarray] = []
    buf = np.empty((min(n, _BLOCK), n))
    for lo in reversed(range(0, n, _BLOCK)):
        hi = min(lo + _BLOCK, n)
        dists = _distance_rows(pts, sq, lo, hi, buf[: hi - lo])
        dists[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        cols = np.argpartition(dists, k, axis=1)[:, :k].astype(np.int64).ravel()
        rows = np.repeat(np.arange(lo, hi, dtype=np.int64), k)
        picked = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        pending = np.concatenate([pending, picked])
        live = pending >= lo * n
        keys = np.unique(pending[live])
        pending = pending[~live]
        a = keys // n
        key_parts.append(keys)
        weight_parts.append(dists[a - lo, keys - a * n])

    keys = np.concatenate(key_parts[::-1])
    ea = keys // n
    edges = np.stack([ea, keys - ea * n], axis=1)
    weights = np.concatenate(weight_parts[::-1])

    if ensure_connected:
        extra_e, extra_w = _bridge_components(pts, edges)
        if extra_e:
            edges = np.concatenate([edges, np.asarray(extra_e, dtype=np.int64)])
            weights = np.concatenate([weights, np.asarray(extra_w, dtype=np.float64)])
    return n, edges, weights


def _bridge_components(
    pts: np.ndarray, edges: np.ndarray
) -> tuple[list[list[int]], list[float]]:
    """Closest-pair bridges ``([u, v] list, weight list)`` that connect
    the graph ``edges`` over the points ``pts``.

    Prim's algorithm over components: starting from vertex 0's component,
    each bridge joins the grown component to the outside point ``v`` with
    the smallest ``(dist(u, v), u, v)`` over inside points ``u``, and is
    weighted from row ``u``.  One csgraph pass labels the components; if
    there are several, one pass over the aligned distance blocks folds
    each component's rows into per-column minima (the distance and the
    smallest row reaching it): O(C*n) extra memory for C components.
    """
    n = pts.shape[0]
    ones = np.ones(edges.shape[0], dtype=np.int8)
    ncomp, labels = connected_components(
        coo_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(n, n)), directed=False
    )
    if ncomp == 1:
        return [], []

    # col_d[c, v], col_u[c, v]: min over rows u in component c of
    # dist(u, v), and the smallest such u.  Rows fold in ascending order,
    # so a strict < keeps the smaller row on ties.
    col_d = np.full((ncomp, n), np.inf)
    col_u = np.zeros((ncomp, n), dtype=np.int64)
    sq = np.einsum("ij,ij->i", pts, pts)
    buf = np.empty((min(n, _BLOCK), n))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        dists = _distance_rows(pts, sq, lo, hi, buf[: hi - lo])
        for u, (row, c) in enumerate(zip(dists, labels[lo:hi]), start=lo):
            better = row < col_d[c]
            np.copyto(col_d[c], row, where=better)
            np.copyto(col_u[c], u, where=better)

    inside = labels == labels[0]
    best_d = col_d[labels[0]].copy()
    best_u = col_u[labels[0]].copy()
    extra_e: list[list[int]] = []
    extra_w: list[float] = []
    for _ in range(ncomp - 1):
        d = np.where(inside, np.inf, best_d)
        tied = ~inside & (d == d.min())
        u = best_u[tied].min()
        v = int(np.flatnonzero(tied & (best_u == u))[0])
        extra_e.append([int(u), v])
        extra_w.append(float(best_d[v]))
        c = labels[v]
        inside |= labels == c
        better = (col_d[c] < best_d) | ((col_d[c] == best_d) & (col_u[c] < best_u))
        best_d[better] = col_d[c, better]
        best_u[better] = col_u[c, better]
    return extra_e, extra_w
