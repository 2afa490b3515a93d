"""Blocked k-NN graph construction vs the dense-matrix scalar oracles.

``knn_graph`` streams aligned distance blocks and ``_bridge_components``
runs Prim over components; the original dict/scalar implementations over
the dense :func:`pairwise_distances` matrix are kept here as
``_knn_pairs_reference`` / ``_bridge_components_reference`` and every
test is a strict equality against them.  Inputs past one 1024-row block
(n = 1025, 2100) pin the row each weight is read from: the dense matrix
is not exactly symmetric there.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.knn import _bridge_components, knn_graph, pairwise_distances
from repro.datasets.points import gaussian_blobs
from repro.structures.unionfind import UnionFind


def _knn_pairs_reference(
    n: int, nbrs: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The original dict-based pair build (kept as the test oracle for the
    symmetrize/dedupe in :func:`knn_graph`).  Pair ``(a, b)``, ``a < b``,
    is weighted from row ``a`` whichever endpoint selected it."""
    pair_weight: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in nbrs[i]:
            j = int(j)
            key = (i, j) if i < j else (j, i)
            pair_weight[key] = float(dists[key])
    edges = np.array(sorted(pair_weight), dtype=np.int64).reshape(-1, 2)
    weights = np.array([pair_weight[tuple(p)] for p in edges], dtype=np.float64)
    return edges, weights


def _bridge_components_reference(
    n: int, edges: np.ndarray, dists: np.ndarray
) -> tuple[list[list[int]], list[float]]:
    """The original per-vertex bridging loop (test oracle)."""
    uf = UnionFind(n)
    for u, v in edges:
        if uf.find(int(u)) != uf.find(int(v)):
            uf.union(int(u), int(v))
    extra_e: list[list[int]] = []
    extra_w: list[float] = []
    while uf.num_sets > 1:
        roots = np.array([uf.find(v) for v in range(n)])
        comp0 = np.flatnonzero(roots == roots[0])
        rest = np.flatnonzero(roots != roots[0])
        block = dists[np.ix_(comp0, rest)]
        a, b = np.unravel_index(np.argmin(block), block.shape)
        u, v = int(comp0[a]), int(rest[b])
        extra_e.append([u, v])
        extra_w.append(float(dists[u, v]))
        uf.union(u, v)
    return extra_e, extra_w


def _dense_oracle(
    pts: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, list[list[int]], list[float]]:
    """k-NN pairs and bridges computed the original way, from the dense
    distance matrix with its diagonal masked."""
    n = pts.shape[0]
    dists = pairwise_distances(pts)
    np.fill_diagonal(dists, np.inf)
    nbrs = np.argpartition(dists, k, axis=1)[:, :k]
    edges, weights = _knn_pairs_reference(n, nbrs, dists)
    extra_e, extra_w = _bridge_components_reference(n, edges, dists)
    return edges, weights, extra_e, extra_w


def _assert_matches_dense_oracle(pts: np.ndarray, k: int) -> list[list[int]]:
    """``knn_graph(pts, k)`` is the oracle pairs followed by the oracle
    bridges, weights byte for byte; returns the bridges."""
    ref_edges, ref_weights, extra_e, extra_w = _dense_oracle(pts, k)
    got_n, got_edges, got_weights = knn_graph(pts, k)
    assert got_n == pts.shape[0]
    bridges = np.asarray(extra_e, dtype=np.int64).reshape(-1, 2)
    assert np.array_equal(got_edges, np.concatenate([ref_edges, bridges]))
    expected_w = np.concatenate([ref_weights, np.asarray(extra_w, dtype=np.float64)])
    assert got_weights.tobytes() == expected_w.tobytes()
    assert _bridge_components(pts, ref_edges) == (extra_e, extra_w)
    return extra_e


def _grid_points(n: int, d: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng([n, d, len(kind)])
    pts = rng.random((n, d))
    if kind == "ties":  # quantized coordinates: duplicates and tied distances
        pts = np.round(pts * 3) / 3.0
    elif kind == "groups":  # >= 3 far-apart groups: bridging must run
        pts += 100.0 * (np.arange(n) % 3)[:, None]
    return pts


GRID = [
    (n, d, kind)
    for n in (1025, 2100)
    for d in (2, 5, 33)
    for kind in ("random", "ties", "groups")
]


@pytest.mark.parametrize("n,d,kind", GRID)
def test_multi_block_grid_matches_dense_oracle(n, d, kind):
    """Past one block: identical edges, weight bytes and bridge list."""
    pts = _grid_points(n, d, kind)
    for k in (3, 8):
        extra_e = _assert_matches_dense_oracle(pts, k)
        if kind == "groups":
            assert len(extra_e) >= 2


def test_grid_includes_an_asymmetric_dense_matrix():
    """The grid keeps exercising the row-min(a, b) weight rule only while
    some grid input's dense matrix differs from its transpose."""
    assert any(
        not np.array_equal(dists, dists.T)
        for dists in (pairwise_distances(_grid_points(*case)) for case in GRID)
    )


def test_k1_lattice_many_components_prim_tie_order():
    """k = 1 on a lattice: every distance ties at 1, the graph falls into
    many components, and the bridge order rests on the (dist, u, v) rule."""
    pts = np.stack(np.unravel_index(np.arange(300), (15, 20)), axis=1).astype(float)
    pts = pts[np.random.default_rng(5).permutation(300)]
    extra_e = _assert_matches_dense_oracle(pts, 1)
    assert len(extra_e) >= 20


def test_knn_graph_memory_stays_blocked():
    """n = 8192: the tracemalloc peak stays under three 1024 x n float64
    blocks (192 MiB); the dense matrix plus its argpartition is 1 GiB."""
    n = 8192
    pts, _ = gaussian_blobs(n, centers=16, dim=4, seed=0)
    tracemalloc.start()
    try:
        knn_graph(pts, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 1024 * n * 8, peak / 2**20


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 40),
    d=st.integers(1, 3),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
    quantize=st.booleans(),
)
def test_pair_build_matches_dict_oracle(n, d, k, seed, quantize):
    k = min(k, n - 1)
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    if quantize:  # duplicate coordinates: tied distances, repeated pairs
        pts = np.round(pts * 3) / 3.0
    dists = pairwise_distances(pts)
    np.fill_diagonal(dists, np.inf)
    nbrs = np.argpartition(dists, k, axis=1)[:, :k]

    ref_edges, ref_weights = _knn_pairs_reference(n, nbrs, dists)

    got_n, got_edges, got_weights = knn_graph(pts, k, ensure_connected=False)
    assert got_n == n
    assert np.array_equal(got_edges, ref_edges)
    assert got_weights.tobytes() == ref_weights.tobytes()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**31 - 1), ncomp=st.integers(1, 4))
def test_bridge_components_matches_scalar_oracle(n, seed, ncomp):
    """Drop all edges between ``ncomp`` groups, then bridge: Prim over
    components must produce the identical bridge list (same order)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    dists = pairwise_distances(pts)
    groups = rng.integers(0, ncomp, size=n)
    rows = []
    for g in range(ncomp):
        members = np.flatnonzero(groups == g)
        rows += [[int(a), int(b)] for a, b in zip(members[:-1], members[1:])]
    edges = (
        np.asarray(rows, dtype=np.int64)
        if rows
        else np.zeros((0, 2), dtype=np.int64)
    )
    got_e, got_w = _bridge_components(pts, edges)
    ref_e, ref_w = _bridge_components_reference(n, edges, dists)
    assert got_e == ref_e
    assert got_w == ref_w


def test_knn_graph_connected_end_to_end():
    """With ensure_connected the full output (bridges appended) matches a
    reference recomposition from the two oracles."""
    rng = np.random.default_rng(77)
    # Two well-separated blobs so k=2 leaves the graph disconnected.
    pts = np.concatenate([rng.random((12, 2)), rng.random((12, 2)) + 50.0])
    assert _assert_matches_dense_oracle(pts, 2)  # the input must need a bridge
