"""k-NN graph construction and bridging vs dense scalar oracles.

``knn_graph`` takes candidates from a k-d tree or a block pass
(:data:`repro.cluster.knn.KDTREE_MAX_DIM`), weights them with the
per-pair helper :func:`pair_distances` and keeps each row's ``k``
smallest by ``(weight, index)``; ``_bridge_components`` runs Prim over
components.  The oracles here work on the dense helper matrix instead --
``_knn_pairs_reference`` / ``_bridge_components_reference`` are the
original dict/scalar implementations -- and every test is a strict
equality against them, run under both candidate sources, whose outputs
must match byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import knn
from repro.cluster.knn import _bridge_components, knn_graph, pair_distances, pairwise_distances
from repro.datasets.points import gaussian_blobs
from repro.structures.unionfind import UnionFind

#: Module constants that force each candidate source everywhere.
SOURCES = {
    "blocks": {"KDTREE_MAX_DIM": 0},
    "kdtree": {"KDTREE_MAX_DIM": 10**9, "_TREE_MIN_MEMBERS": 1},
}


def _from_both_sources(build):
    """``build()`` under each candidate source; the two results must be
    equal byte for byte.  Returns the k-d tree's."""
    results = {}
    for name, constants in SOURCES.items():
        with pytest.MonkeyPatch.context() as mp:
            for attr, value in constants.items():
                mp.setattr(knn, attr, value)
            results[name] = build()
    assert _bytes(results["blocks"]) == _bytes(results["kdtree"])
    return results["kdtree"]


def _bytes(value):
    """A comparable image of nested tuples/lists of arrays and scalars
    that tells apart float bits and dtypes."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_bytes(v) for v in value)
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def _dense(pts: np.ndarray) -> np.ndarray:
    """The n x n helper matrix (the oracles' distances), in cache-sized
    row blocks."""
    blocks = range(0, pts.shape[0], 128)
    return np.concatenate([pair_distances(pts[lo : lo + 128, None], pts[None]) for lo in blocks])


def _knn_pairs_reference(
    n: int, nbrs: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The original dict-based pair build (kept as the test oracle for the
    symmetrize/dedupe in :func:`knn_graph`)."""
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


def _nearest_reference(dists: np.ndarray, k: int) -> np.ndarray:
    """Each row's ``k`` nearest other points by ``(weight, index)``: a
    stable sort of the row with the diagonal masked."""
    masked = dists.copy()
    np.fill_diagonal(masked, np.inf)
    return np.argsort(masked, axis=1, kind="stable")[:, :k]


def _dense_oracle(
    dists: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, list[list[int]], list[float]]:
    """k-NN pairs and bridges computed from the dense helper matrix."""
    n = dists.shape[0]
    edges, weights = _knn_pairs_reference(n, _nearest_reference(dists, k), dists)
    extra_e, extra_w = _bridge_components_reference(n, edges, dists)
    return edges, weights, extra_e, extra_w


def _assert_matches_dense_oracle(
    pts: np.ndarray, k: int, dists: np.ndarray | None = None
) -> list[list[int]]:
    """``knn_graph(pts, k)`` from either candidate source is the oracle
    pairs followed by the oracle bridges, weights byte for byte; returns
    the bridges.  ``dists`` is ``_dense(pts)`` if the caller has it."""
    dists = _dense(pts) if dists is None else dists
    ref_edges, ref_weights, extra_e, extra_w = _dense_oracle(dists, k)
    got_n, got_edges, got_weights = _from_both_sources(lambda: knn_graph(pts, k))
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
    """Identical edges, weight bytes and bridge list, on both sides of the
    k-d tree's dimension limit, with duplicates and several components."""
    pts = _grid_points(n, d, kind)
    dists = _dense(pts)
    for k in (3, 8):
        extra_e = _assert_matches_dense_oracle(pts, k, dists)
        if kind == "groups":
            assert len(extra_e) >= 2


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 33, 128])
def test_pairwise_distances_is_the_helper_bit_for_bit(d, scale):
    """SciPy's ``cdist`` behind :func:`pairwise_distances` sums in the
    helper's coordinate order; at the extreme scales squares overflow
    past 1e300 or fall into subnormals."""
    rng = np.random.default_rng(d)
    pts = (rng.random((70, d)) - 0.5) * scale
    pts[5] = pts[3]
    assert pairwise_distances(pts).tobytes() == _dense(pts).tobytes()


@pytest.mark.parametrize("n,d,kind", [c for c in GRID if c[0] == 1025])
def test_pairwise_distances_is_exactly_symmetric_with_a_zero_diagonal(n, d, kind):
    dists = pairwise_distances(_grid_points(n, d, kind))
    assert np.array_equal(dists, dists.T)
    assert not np.diagonal(dists).any()


def test_pair_distances_do_not_depend_on_the_batch():
    """One pair's weight is the same alone, in a batch, reversed, and in
    the dense matrix."""
    pts = np.random.default_rng(3).random((200, 7)) * 10.0
    a, b = np.triu_indices(200, k=1)
    batch = pair_distances(pts[a], pts[b])
    assert batch.tobytes() == pair_distances(pts[b], pts[a]).tobytes()
    assert batch.tobytes() == _dense(pts)[a, b].tobytes()
    single = [pair_distances(pts[i], pts[j]) for i, j in zip(a[:50], b[:50])]
    assert np.array(single).tobytes() == batch[:50].tobytes()


def test_k1_lattice_many_components_prim_tie_order():
    """k = 1 on a lattice: every distance ties at 1, the graph falls into
    many components, and the bridge order rests on the (dist, u, v) rule."""
    pts = np.stack(np.unravel_index(np.arange(300), (15, 20)), axis=1).astype(float)
    pts = pts[np.random.default_rng(5).permutation(300)]
    extra_e = _assert_matches_dense_oracle(pts, 1)
    assert len(extra_e) >= 20


@pytest.mark.parametrize("d", [2, 12])
def test_k_is_n_minus_one(d):
    """k + slack >= n: every point is a candidate, and the graph is complete."""
    pts = _grid_points(60, d, "ties")
    _assert_matches_dense_oracle(pts, 59)
    _, edges, _ = knn_graph(pts, 59)
    assert edges.shape[0] == 60 * 59 // 2


@pytest.mark.parametrize("copies", [3, 12, 40])
def test_more_copies_of_a_point_than_k_plus_one(copies):
    """Copies tie at distance 0 beyond the k-th neighbor, so the tie rule
    picks the smallest indices, and a copy may sort before the point
    itself."""
    rng = np.random.default_rng(copies)
    base = rng.random((30, 3))
    pts = np.concatenate([np.repeat(base[:2], copies, axis=0), base[2:]])
    pts = pts[rng.permutation(pts.shape[0])]
    dists = _dense(pts)
    for k in (1, 4, 8):
        _assert_matches_dense_oracle(pts, k, dists)


def test_knn_weights_are_accurate_to_the_last_bits():
    """Against extended precision, every k-NN weight on a blobs input is
    within 1e-15 relative (the expansion |a|^2 + |b|^2 - 2ab lost up to
    ~1e-10 here)."""
    pts, _ = gaussian_blobs(4096, centers=16, dim=4, seed=0)
    _, edges, weights = knn_graph(pts, 8)
    diff = pts[edges[:, 0]].astype(np.longdouble) - pts[edges[:, 1]].astype(np.longdouble)
    exact = np.sqrt((diff * diff).sum(axis=1))
    rel = np.abs(weights.astype(np.longdouble) - exact) / exact
    assert float(rel.max()) <= 1e-15


def test_knn_graph_memory_is_linear_in_n_k_and_components():
    """n = 8192, k = 8, 16 blobs: the tracemalloc peak stays under 48
    bytes per (point, neighbor-or-component) slot, 9 MiB, plus three
    8 MiB blocks when the block pass is the source.  Three 1024 x n
    blocks were 192 MiB; the dense matrix is 512 MiB."""
    n, k, components = 8192, 8, 16
    pts, _ = gaussian_blobs(n, centers=components, dim=4, seed=0)
    for name, constants in SOURCES.items():
        blocks = 3 * 8 * knn._BLOCK_ENTRIES if name == "blocks" else 0
        with pytest.MonkeyPatch.context() as mp:
            for attr, value in constants.items():
                mp.setattr(knn, attr, value)
            tracemalloc.start()
            try:
                knn_graph(pts, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 48 * n * (k + components) + blocks, (name, peak / 2**20)


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
    dists = _dense(pts)
    ref_edges, ref_weights = _knn_pairs_reference(n, _nearest_reference(dists, k), dists)

    got_n, got_edges, got_weights = _from_both_sources(
        lambda: knn_graph(pts, k, ensure_connected=False)
    )
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
    dists = _dense(pts)
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
    got_e, got_w = _from_both_sources(lambda: _bridge_components(pts, edges))
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


def test_importing_the_pipelines_leaves_scipy_spatial_unloaded():
    """``scipy.spatial`` costs ~0.1 s to import; only the functions that
    search or fill a matrix load it."""
    src = Path(knn.__file__).resolve().parents[2]
    code = (
        "import sys, repro, repro.cluster, repro.cluster.single_linkage\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"
