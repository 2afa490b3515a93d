"""Neighborhood graphs and Euclidean distances for point clouds.

The paper's BigANN input is an approximate k-NN graph over SIFT
descriptors built with DiskANN; the single-core substitute here is an
exact k-NN over synthetic point clouds (DESIGN.md Section 1).  Distances
are Euclidean; the k-NN graph is symmetrized (an edge appears if either
endpoint selects the other) and, when requested, made connected by
bridging components at their closest point pairs -- the same guarantee an
ANN-graph + MST pipeline needs.

Every Euclidean weight comes from one formula, :func:`pair_distances`:
``sqrt(sum_j (a_j - b_j)**2)``, summed over the coordinates in order.  It
is symmetric to the bit and does not depend on how pairs are batched, so
a weight is a function of its two points alone.

Searching is kept apart from weighting.  A *candidate source* proposes
near points -- a ``scipy.spatial.cKDTree`` up to :data:`KDTREE_MAX_DIM`
dimensions, a BLAS block pass above -- and bounds the real distance of
every point it did not propose.  The helper weights the proposals, and a
choice is trusted only when that bound, less the error margin of
:func:`_margin`, lies strictly beyond it; any other k-NN row or Prim step
is settled exactly, the helper weighting every pair that a block pass
cannot place beyond it.  So the output does not depend on the source.  :func:`knn_graph` holds
O(n*k) memory plus O(n) to bridge; only :func:`pairwise_distances`
forms an n x n array, and :func:`complete_mst` is exact single linkage's
tree in O(n) memory.  ``scipy.spatial`` is imported by the functions
that use it, never by this module: it costs ~0.1 s of start-up.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.errors import InvalidGraphError, NotConnectedError
from repro.trees.wtree import WeightedTree

__all__ = [
    "KDTREE_MAX_DIM",
    "complete_graph",
    "complete_mst",
    "knn_graph",
    "pair_distances",
    "pairwise_distances",
]

#: Largest dimension whose candidate source is a k-d tree; above it the
#: source is a BLAS block pass.  A k-d tree degrades with dimension: the
#: value is the largest d at which it never lost to the block pass on
#: uniform points (EXPERIMENTS.md, "k-NN layer").
KDTREE_MAX_DIM = 8

#: Candidates per k-NN row beyond the point itself and its k neighbors:
#: the last one must lie beyond the k-th weight for the row to settle.
_SLACK = 2

#: float64 entries per block of the block pass (8 MiB).
_BLOCK_ENTRIES = 1 << 20

#: Fewest points a joining component needs for its bridging bounds to come
#: from a k-d tree: below it, one block pass over the component is faster
#: at d <= 8 (EXPERIMENTS.md, "k-NN layer").
_TREE_MIN_MEMBERS = 128

#: Absolute part of every error margin: it covers squares that underflow
#: below 2**-1022 and lose their relative precision.
_TINY = 2.0**-500


def _as_points(points: np.ndarray) -> np.ndarray:
    """``points`` as a float64 ``(n, d)`` array of finite coordinates."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidGraphError(f"points must be 2-D (n, d), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidGraphError("points must have finite coordinates (no NaN or inf)")
    return pts


def _norms(
    a_cols: Iterable[np.ndarray], b_cols: Iterable[np.ndarray], shape: tuple[int, ...]
) -> np.ndarray:
    """``sqrt(sum_j (a_j - b_j)**2)`` over paired coordinate columns, summed
    in coordinate order: the one Euclidean formula of the package."""
    acc = np.zeros(shape)
    for x, y in zip(a_cols, b_cols):
        diff = x - y
        acc += diff * diff
    return np.sqrt(acc, out=acc)


def pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between paired rows of ``a`` and ``b``
    (broadcast over leading axes; the last axis holds the coordinates).

    The sum runs over the coordinates in order, so the result is exactly
    symmetric and a row's distance does not depend on the rows beside it.
    Every weight the point pipelines produce equals this function's value
    on the weight's two points.
    """
    a_cols = np.ascontiguousarray(np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0))
    b_cols = np.ascontiguousarray(np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0))
    return _norms(a_cols, b_cols, np.broadcast_shapes(a_cols.shape[1:], b_cols.shape[1:]))


def _margin(d: int) -> float:
    """The relative error margin ``rho`` of distances in ``d`` dimensions.

    With u = 2**-53: summing d nonnegative squares in any order and taking
    one ``sqrt`` puts a computed distance within (d + 2)u of the real one.
    The block formula ``|x|^2 + |y|^2 - 2 x.y`` is within (2d + 6)u of
    ``|x|^2 + |y|^2`` in squared space.  A balanced k-d tree (depth <= 64)
    updates a box distance with two roundings per level, so a point it
    prunes lies at least (1 - (d + 130)u) times its reported k-th
    distance away.  ``rho = (4d + 512)u`` covers each bound twice over,
    and the few roundings of the margin checks themselves besides.
    """
    return (2 * d + 256) * 2.0**-52


def _sq_blocks(
    a: np.ndarray, b: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Squared distances ``|x|^2 + |y|^2 - 2 x.y`` from the points ``a`` to
    the points ``b``, a block of rows at a time.

    Yields ``(lo, hi, block, err)``: ``block[r, c]`` is within ``err[r]``
    of the real squared distance from ``a[lo + r]`` to ``b[c]``.  No block
    fixes any weight, so the block size is free.
    """
    sqa = np.einsum("ij,ij->i", a, a)
    sqb = np.einsum("ij,ij->i", b, b)
    rho = _margin(a.shape[1])
    top = sqb.max(initial=0.0)
    step = max(1, _BLOCK_ENTRIES // max(1, b.shape[0]))
    for lo in range(0, a.shape[0], step):
        hi = min(lo + step, a.shape[0])
        block = a[lo:hi] @ b.T
        block *= -2.0
        block += sqa[lo:hi, None]
        block += sqb
        yield lo, hi, block, rho * (sqa[lo:hi] + top) + _TINY * _TINY


def _knn_candidates(pts: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's ``count`` candidate nearest points (usually itself among
    them), and for each point a lower bound on the real distance to every
    point not proposed (``+inf`` when every point is proposed)."""
    n, d = pts.shape
    if count == n:
        return np.broadcast_to(np.arange(n), (n, n)), np.full(n, np.inf)
    rho = _margin(d)
    if 0 < d <= KDTREE_MAX_DIM:  # cKDTree needs a coordinate
        from scipy.spatial import cKDTree

        dist, idx = cKDTree(pts).query(pts, k=count)
        return idx, (dist[:, -1] - _TINY) * (1.0 - rho)
    idx = np.empty((n, count), dtype=np.int64)
    floor = np.empty(n)
    for lo, hi, block, err in _sq_blocks(pts, pts):
        part = np.argpartition(block, count - 1, axis=1)[:, :count]
        idx[lo:hi] = part
        kth = np.take_along_axis(block, part[:, -1:], axis=1)[:, 0]
        floor[lo:hi] = np.sqrt(np.maximum(kth - err, 0.0)) * (1.0 - rho)
    return idx, floor


def _nearest_bounds(
    pts: np.ndarray, members: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``(lo, hi)`` on the real distance from each point of
    ``queries`` to its nearest point of ``members`` (both index arrays)."""
    d = pts.shape[1]
    rho = _margin(d)
    if 0 < d <= KDTREE_MAX_DIM and members.size >= _TREE_MIN_MEMBERS:
        from scipy.spatial import cKDTree

        dist, _ = cKDTree(pts[members]).query(pts[queries], k=1)
        return (dist - _TINY) * (1.0 - rho), (dist + _TINY) * (1.0 + 2.0 * rho)
    lo_out = np.empty(queries.size)
    hi_out = np.empty(queries.size)
    for lo, hi, block, err in _sq_blocks(pts[queries], pts[members]):
        near = block.min(axis=1)
        lo_out[lo:hi] = np.sqrt(np.maximum(near - err, 0.0)) * (1.0 - rho)
        hi_out[lo:hi] = np.sqrt(near + err) * (1.0 + rho)
    return lo_out, hi_out


def _near_pairs(
    pts: np.ndarray, queries: np.ndarray, members: np.ndarray, radius: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pairs ``(i, j)`` of positions in ``queries`` and ``members`` (index
    arrays) that include every pair whose real distance is at most
    ``radius[i]``, a block of queries at a time, so a degenerate input
    (every point a copy of one) holds at most one block of pairs."""
    rho = _margin(pts.shape[1])
    for lo, hi, block, err in _sq_blocks(pts[queries], pts[members]):
        reach = radius[lo:hi] * (1.0 + 2.0 * rho)
        i, j = np.nonzero(block <= (reach * reach + err)[:, None])
        yield i + lo, j


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix (quadratic memory).

    ``points`` must be a 2-D array of finite coordinates, else
    :class:`~repro.errors.InvalidGraphError`.  SciPy's ``cdist`` sums the
    squared differences in coordinate order, so every entry equals
    :func:`pair_distances` bit for bit (a test pins this): the matrix is
    exactly symmetric with a zero diagonal.
    """
    from scipy.spatial.distance import cdist

    pts = _as_points(points)
    return cdist(pts, pts)


def complete_graph(points: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """All-pairs graph ``(n, edges, weights)`` with Euclidean weights; edge
    ``id(a, b) = a*n - a*(a+1)/2 + (b - a - 1)`` joins ``a < b``."""
    dists = pairwise_distances(points)
    n = dists.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    edges = np.stack([iu, ju], axis=1).astype(np.int64)
    return n, edges, dists[iu, ju]


def _pair_ids(a: np.ndarray | int, b: np.ndarray, n: int) -> np.ndarray:
    """:func:`complete_graph` edge ids of the pairs ``(a, b)``, ``a != b``."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)


def complete_mst(points: np.ndarray) -> WeightedTree:
    """Minimum spanning tree of the complete Euclidean graph on ``points``,
    by a dense Prim in O(n) memory and O(n^2 d) time.

    Weights are :func:`pair_distances`, and ties follow Kruskal's
    ``(weight, edge id)`` order over the :func:`complete_graph` ids.  With
    the edges listed in ascending id order, the tree is byte for byte
    :func:`~repro.trees.mst.minimum_spanning_tree` of
    :func:`complete_graph`, without the n^2 edge list.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n == 0:
        raise NotConnectedError("graph has 0 connected components; cannot span 0 vertices")
    cols = np.ascontiguousarray(pts.T)
    # out: vertices not yet in the tree, unordered, the live ones first (one
    # leaves by moving the last live one into its slot); best/src: each
    # one's lightest edge to the tree and that edge's tree end; ocols:
    # their coordinates.
    out = np.arange(1, n)
    src = np.zeros(n - 1, dtype=np.int64)
    ocols = cols[:, 1:].copy()
    best = _norms(cols[:, 0], ocols, (n - 1,))
    ids = np.empty(n - 1, dtype=np.int64)
    weights = np.empty(n - 1)
    for t in range(n - 1):
        last = n - 2 - t  # out[: last + 1] is live
        b = best[: last + 1]
        weights[t] = b.min()
        tied = np.flatnonzero(b == weights[t])
        if tied.size > 1:
            tied = tied[np.argmin(_pair_ids(src[tied], out[tied], n)) :]
        j = int(tied[0])
        v = int(out[j])
        ids[t] = _pair_ids(src[j], out[j], n)
        out[j], src[j], best[j] = out[last], src[last], best[last]
        ocols[:, j] = ocols[:, last]
        if last == 0:
            break
        near = _norms(cols[:, v], ocols[:, :last], (last,))
        b = best[:last]
        closer = near < b
        tie = np.flatnonzero(near == b)
        if tie.size:
            o = out[tie]
            closer[tie] = _pair_ids(v, o, n) < _pair_ids(src[tie], o, n)
        np.copyto(b, near, where=closer)
        np.copyto(src[:last], v, where=closer)
    order = np.argsort(ids)
    ids = ids[order]
    # Invert id(a, b): a is the last row whose first id is <= the id.
    starts = _pair_ids(np.arange(n - 1), np.arange(1, n), n)
    a = np.searchsorted(starts, ids, side="right") - 1
    b_end = ids - starts[a] + a + 1
    edges = np.stack([a, b_end], axis=1).astype(np.int64)
    return WeightedTree(n, edges, weights[order], validate=False)


def _exact_rows(
    pts: np.ndarray, cols: np.ndarray, rows: np.ndarray, radius: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest other points of each point in ``rows`` by
    ``(weight, index)``, and their weights, given that each row's ``k``
    nearest lie within real distance ``radius`` of it: the helper weights
    every pair the block pass cannot rule out."""
    ids = np.empty((rows.size, k), dtype=np.int64)
    weights = np.empty((rows.size, k))
    for i, j in _near_pairs(pts, rows, np.arange(pts.shape[0]), radius):
        keep = j != rows[i]
        i, j = i[keep], j[keep]
        w = _norms((c[rows[i]] for c in cols), (c[j] for c in cols), i.shape)
        order = np.lexsort((j, w, i))
        i, j, w = i[order], j[order], w[order]
        first = np.r_[True, i[1:] != i[:-1]]
        rank = np.arange(i.size) - np.maximum.accumulate(np.where(first, np.arange(i.size), 0))
        take = rank < k
        block_rows = i[take][::k]
        ids[block_rows] = j[take].reshape(-1, k)
        weights[block_rows] = w[take].reshape(-1, k)
    return ids, weights


def _knn_rows(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's ``k`` nearest other points, smallest ``(weight, index)``
    first among ties at the k-th weight: ``(ids, weights)``, both ``(n, k)``.

    A row is settled when the candidate source's bound on the points it
    did not propose, less the helper's margin, lies strictly beyond the
    row's k-th weight: no such point can beat or tie it.  Every other row
    (near-ties, more than ``k + 1`` copies of one point) is recomputed by
    :func:`_exact_rows`.  Self matches go by index, not position: a copy
    of the point may come first.
    """
    n, d = pts.shape
    idx, floor = _knn_candidates(pts, min(k + 1 + _SLACK, n))
    cols = np.ascontiguousarray(pts.T)
    rows = np.arange(n)[:, None]
    w = _norms((c[rows] for c in cols), (c[idx] for c in cols), idx.shape)
    order = np.lexsort((idx, w, idx == rows), axis=-1)[:, :k]
    ids = np.take_along_axis(idx, order, axis=1).astype(np.int64)
    weights = np.take_along_axis(w, order, axis=1)
    rho = _margin(d)
    unsettled = np.flatnonzero(~(floor * (1.0 - rho) - _TINY > weights[:, -1]))
    if unsettled.size:
        # A point that beats or ties the k-th weight w lies within real
        # distance (w + TINY)(1 + rho).
        radius = (weights[unsettled, -1] + _TINY) * (1.0 + rho)
        ids[unsettled], weights[unsettled] = _exact_rows(pts, cols, unsettled, radius, k)
    return ids, weights


def knn_graph(
    points: np.ndarray,
    k: int,
    ensure_connected: bool = True,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Symmetrized exact k-NN graph ``(n, edges, weights)``.

    Each point contributes edges to its ``k`` nearest other points,
    ties at the k-th distance going to the smaller index.  Mutual pairs
    merge into one edge ``(a, b)``, ``a < b``; edges come in ascending
    order, each weighted :func:`pair_distances` of its two points.  With
    ``ensure_connected`` (default), any remaining components are bridged
    at their closest point pairs (:func:`_bridge_components`), appended
    after the k-NN edges, so the MST reduction can span the cloud.

    Candidates come from a k-d tree or a block pass (:data:`KDTREE_MAX_DIM`)
    and are checked against the exact helper, so the output is the same
    from either: O(n*k) memory, no n x n array.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise InvalidGraphError(f"need at least two points, got {n}")
    if not 1 <= k < n:
        raise InvalidGraphError(f"k must be in [1, {n - 1}], got {k}")
    nbrs, w = _knn_rows(pts, k)
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    nbrs = nbrs.ravel()
    keys, first = np.unique(
        np.minimum(rows, nbrs) * n + np.maximum(rows, nbrs), return_index=True
    )
    ea = keys // n
    edges = np.stack([ea, keys - ea * n], axis=1)
    weights = w.ravel()[first]

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
    the smallest ``(dist(u, v), u, v)`` over inside points ``u``, weighted
    :func:`pair_distances`.  When a component joins, the candidate source
    bounds every outside point's distance to it, so each outside point
    carries bounds on its distance to the grown component.  A step takes
    the least upper bound M; the helper weights every inside-outside pair
    the block pass cannot place beyond the margin of M, and the step's
    bridge is the exact minimum among them.  Memory is O(n) beyond the
    points, plus one block.
    """
    n, d = pts.shape
    ones = np.ones(edges.shape[0], dtype=np.int8)
    ncomp, labels = connected_components(
        coo_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(n, n)), directed=False
    )
    if ncomp == 1:
        return [], []

    rho = _margin(d)
    cols = np.ascontiguousarray(pts.T)
    lo = np.full(n, np.inf)
    hi = np.full(n, np.inf)
    joined = labels == labels[0]
    inside = joined.copy()
    extra_e: list[list[int]] = []
    extra_w: list[float] = []
    for _ in range(ncomp - 1):
        out = np.flatnonzero(~inside)
        near_lo, near_hi = _nearest_bounds(pts, np.flatnonzero(joined), out)
        lo[out] = np.minimum(lo[out], near_lo)
        hi[out] = np.minimum(hi[out], near_hi)
        # The exact minimum D is at most M(1 + rho) + TINY (the helper on
        # the pair behind M), and a pair at D has real distance at most
        # (D + TINY)(1 + rho) <= reach.
        reach = (hi[out].min() + 2.0 * _TINY) * (1.0 + 4.0 * rho)
        check = out[lo[out] <= reach]
        members = np.flatnonzero(inside)
        best: tuple[float, int, int] = (np.inf, n, n)
        for i, j in _near_pairs(pts, check, members, np.full(check.size, reach)):
            if i.size:
                vs, us = check[i], members[j]
                dist = _norms((c[vs] for c in cols), (c[us] for c in cols), vs.shape)
                f = np.lexsort((vs, us, dist))[0]
                best = min(best, (float(dist[f]), int(us[f]), int(vs[f])))
        w, u, v = best
        extra_e.append([u, v])
        extra_w.append(w)
        joined = labels == labels[v]
        inside |= joined
    return extra_e, extra_w
