"""MST algorithms: agreement, connectivity errors, SLD reduction property."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlgorithmError, InvalidGraphError, NotConnectedError
from repro.trees.mst import kruskal_mst, minimum_spanning_tree, prim_mst, scipy_mst
from repro.trees.validation import validate_tree_edges


def random_connected_graph(rng, n, extra=10):
    """Random spanning tree plus up to ``extra`` random non-tree edges."""
    edges = [(int(rng.integers(i)), i) for i in range(1, n)]
    seen = {(min(u, v), max(u, v)) for u, v in edges}
    max_extra = n * (n - 1) // 2 - (n - 1)  # distinct pairs still available
    target = len(edges) + min(extra, max_extra)
    while len(edges) < target:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    edges = np.array(edges, dtype=np.int64)
    weights = rng.permutation(len(edges)).astype(np.float64)
    return n, edges, weights


def with_parallel_edges(rng, edges, weights, copies=None):
    """``edges`` plus parallel copies of random edges, half of them
    reversed, each tied with its original's weight (a multigraph, like
    the benchmark inputs; ``random_connected_graph`` dedupes pairs)."""
    m = edges.shape[0]
    pick = rng.integers(0, m, size=m if copies is None else copies)
    extra = edges[pick].copy()
    flip = rng.random(pick.size) < 0.5
    extra[flip] = extra[flip][:, ::-1]
    return np.concatenate([edges, extra]), np.concatenate([weights, weights[pick]])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**31 - 1))
def test_kruskal_prim_scipy_agree_on_distinct_weights(n, seed):
    rng = np.random.default_rng(seed)
    n, edges, weights = random_connected_graph(rng, n)
    k = kruskal_mst(n, edges, weights)
    p = prim_mst(n, edges, weights)
    s = scipy_mst(n, edges, weights)
    assert sorted(k.tolist()) == sorted(p.tolist()) == sorted(s.tolist())


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 25), seed=st.integers(0, 2**31 - 1))
def test_mst_weight_minimal_vs_bruteforce_total(n, seed):
    """The chosen tree's weight must equal the scipy MST total weight."""
    rng = np.random.default_rng(seed)
    n, edges, weights = random_connected_graph(rng, n, extra=6)
    ids = kruskal_mst(n, edges, weights)
    assert np.isclose(weights[ids].sum(), weights[scipy_mst(n, edges, weights)].sum())


@pytest.mark.parametrize("method", ["kruskal", "prim", "scipy"])
def test_disconnected_raises(method):
    from repro.trees.mst import _METHODS

    edges = np.array([[0, 1], [2, 3]], dtype=np.int64)
    with pytest.raises(NotConnectedError):
        _METHODS[method](4, edges, np.ones(2))


def test_minimum_spanning_tree_returns_weighted_tree():
    rng = np.random.default_rng(0)
    n, edges, weights = random_connected_graph(rng, 20)
    tree = minimum_spanning_tree(n, edges, weights)
    assert tree.n == n
    assert tree.m == n - 1
    validate_tree_edges(tree.n, tree.edges)


def test_unknown_method():
    with pytest.raises(ValueError, match="MST method"):
        minimum_spanning_tree(2, np.array([[0, 1]]), np.ones(1), method="dijkstra")
    with pytest.raises(AlgorithmError, match="unknown backend"):
        minimum_spanning_tree(2, np.array([[0, 1]]), np.ones(1), backend="numpy")


def test_boruvka_method_registered():
    tree = minimum_spanning_tree(2, np.array([[0, 1]]), np.ones(1), method="boruvka")
    assert tree.m == 1


@pytest.mark.parametrize("method", ["kruskal", "prim"])
def test_malformed_graphs_rejected(method):
    from repro.trees.mst import _METHODS

    fn = _METHODS[method]
    with pytest.raises(InvalidGraphError, match="self loop"):
        fn(2, np.array([[0, 0]]), np.ones(1))
    with pytest.raises(InvalidGraphError, match=r"\[0, 2\)"):
        fn(2, np.array([[0, 5]]), np.ones(1))
    with pytest.raises(InvalidGraphError, match="one weight"):
        fn(2, np.array([[0, 1]]), np.ones(2))
    with pytest.raises(InvalidGraphError, match="finite"):
        fn(2, np.array([[0, 1]]), np.array([np.nan]))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 18), seed=st.integers(0, 2**31 - 1))
def test_gower_ross_reduction(n, seed):
    """Single linkage on a graph == single linkage on its MST: the merge
    heights (sorted MST weights) must equal the single-linkage merge
    distances scipy computes on the full graph."""
    import scipy.cluster.hierarchy as sch
    import scipy.spatial.distance as ssd

    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    dm = ssd.squareform(ssd.pdist(pts))
    iu, ju = np.triu_indices(n, k=1)
    edges = np.stack([iu, ju], axis=1)
    tree = minimum_spanning_tree(n, edges, dm[iu, ju])
    Z = sch.linkage(ssd.pdist(pts), method="single")
    np.testing.assert_allclose(np.sort(tree.weights), Z[:, 2])
