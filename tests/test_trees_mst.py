"""The MST stage: agreement with the Kruskal oracle and SciPy, connectivity
errors, the density dispatch, and the SLD reduction property."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlgorithmError, InvalidGraphError, NotConnectedError
from repro.trees import mst
from repro.trees.mst import KRUSKAL_DENSITY, kruskal_mst, minimum_spanning_tree, mst_ids
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


def dense(rng, n, edges, weights):
    """The graph plus enough tied parallel copies to put it past the
    density threshold, where the MST stage runs Kruskal."""
    return with_parallel_edges(rng, edges, weights, copies=KRUSKAL_DENSITY * n)


def csgraph_total(n, edges, weights):
    """Total weight of SciPy's csgraph MST, with parallel edges collapsed
    to their lightest copy (a sparse matrix would sum them)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree as csgraph_mst

    lo, hi = np.sort(edges, axis=1).T
    keys = lo * n + hi
    order = np.lexsort((weights, keys))
    first = order[np.r_[True, keys[order][1:] != keys[order][:-1]]]
    shift = 1.0 - weights.min()  # csgraph drops zero-weight entries
    graph = coo_matrix((weights[first] + shift, (lo[first], hi[first])), shape=(n, n))
    return csgraph_mst(graph).sum() - (n - 1) * shift


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**31 - 1))
def test_kruskal_prim_scipy_agree_on_distinct_weights(n, seed):
    """Distinct weights make the MST unique, so every MST routine must
    pick the same edges: Kruskal, Borůvka on both backends (which took
    over from Prim as Kruskal's counterpart), the MST stage, and SciPy's
    csgraph MST (mapped back to edge ids; the graph has no parallel
    edges)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree as csgraph_mst

    from repro.trees.boruvka import boruvka_mst

    rng = np.random.default_rng(seed)
    n, edges, weights = random_connected_graph(rng, n)
    k = np.sort(kruskal_mst(n, edges, weights))
    assert np.array_equal(boruvka_mst(n, edges, weights), k)
    assert np.array_equal(boruvka_mst(n, edges, weights, backend="reference"), k)
    assert np.array_equal(mst_ids(n, edges, weights), k)
    lo, hi = np.sort(edges, axis=1).T
    # Weights are 0..m-1; shift them, since csgraph drops zero entries.
    graph = coo_matrix((weights + 1.0, (lo, hi)), shape=(n, n))
    s = csgraph_mst(graph).tocoo()
    a, b = np.minimum(s.row, s.col), np.maximum(s.row, s.col)
    id_of = {(int(u), int(v)): e for e, (u, v) in enumerate(zip(lo, hi))}
    assert sorted(id_of[int(u), int(v)] for u, v in zip(a, b)) == k.tolist()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**31 - 1), levels=st.integers(1, 3))
def test_kruskal_scans_in_the_order_its_ranks_define(n, seed, levels):
    """``kruskal_mst`` sorts once (a stable argsort of the weights); on
    tie-heavy weights and parallel edges that is the old order,
    ``argsort(ranks_of(weights))``, and both scans take the ids a per-edge
    scan in that order takes, in the same order."""
    from repro.runtime.cost_model import CostTracker
    from repro.structures.unionfind import UnionFind
    from repro.trees.weights import ranks_of

    rng = np.random.default_rng(seed)
    n, edges, weights = random_connected_graph(rng, n, extra=2 * n)
    edges, weights = with_parallel_edges(rng, edges, weights)
    weights = rng.integers(0, levels, size=weights.size).astype(np.float64)
    order = np.argsort(ranks_of(weights))
    assert np.array_equal(np.argsort(weights, kind="stable"), order)
    uf, chosen = UnionFind(n), []
    for e in order.tolist():
        u, v = int(edges[e, 0]), int(edges[e, 1])
        if uf.find(u) != uf.find(v):
            uf.union(u, v)
            chosen.append(e)
    assert kruskal_mst(n, edges, weights).tolist() == chosen
    assert kruskal_mst(n, edges, weights, tracker=CostTracker()).tolist() == chosen


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 25), seed=st.integers(0, 2**31 - 1), past_threshold=st.booleans())
def test_mst_weight_minimal_vs_bruteforce_total(n, seed, past_threshold):
    """The chosen tree's weight must equal SciPy's csgraph MST total, on
    both sides of the density threshold."""
    rng = np.random.default_rng(seed)
    n, edges, weights = random_connected_graph(rng, n, extra=6)
    if past_threshold:
        edges, weights = dense(rng, n, edges, weights)
    ids = mst_ids(n, edges, weights)
    assert np.array_equal(ids, np.sort(kruskal_mst(n, edges, weights)))
    assert np.isclose(weights[ids].sum(), csgraph_total(n, edges, weights))


@pytest.mark.parametrize("method", ["kruskal", "sparse", "dense"])
def test_disconnected_raises(method):
    edges = np.array([[0, 1], [2, 3]], dtype=np.int64)
    weights = np.ones(2)
    if method == "dense":
        reps = KRUSKAL_DENSITY * 2
        edges, weights = np.tile(edges, (reps, 1)), np.tile(weights, reps)
    fn = kruskal_mst if method == "kruskal" else mst_ids
    with pytest.raises(NotConnectedError, match="2 connected components"):
        fn(4, edges, weights)


def test_minimum_spanning_tree_returns_weighted_tree():
    rng = np.random.default_rng(0)
    n, edges, weights = random_connected_graph(rng, 20)
    tree = minimum_spanning_tree(n, edges, weights)
    assert tree.n == n
    assert tree.m == n - 1
    validate_tree_edges(tree.n, tree.edges)


def test_unknown_method():
    # There is no method knob: the density picks the algorithm.
    with pytest.raises(TypeError, match="method"):
        minimum_spanning_tree(2, np.array([[0, 1]]), np.ones(1), method="kruskal")
    with pytest.raises(AlgorithmError, match="unknown backend"):
        minimum_spanning_tree(2, np.array([[0, 1]]), np.ones(1), backend="numpy")


def test_boruvka_method_registered(monkeypatch):
    """Below the threshold the stage runs Borůvka, looked up through its
    module at call time (so a wrapper installed there sees the call);
    past it, Kruskal runs instead."""
    from repro.trees import boruvka

    calls = []
    real = boruvka.boruvka_rounds

    def spy(n, edges, weights, **kwargs):
        calls.append(len(edges))
        return real(n, edges, weights, **kwargs)

    monkeypatch.setattr(boruvka, "boruvka_rounds", spy)
    rng = np.random.default_rng(4)
    n, edges, weights = random_connected_graph(rng, 30)
    assert minimum_spanning_tree(n, edges, weights).m == n - 1
    assert calls == [edges.shape[0]]
    assert minimum_spanning_tree(n, *dense(rng, n, edges, weights)).m == n - 1
    assert calls == [edges.shape[0]]


@pytest.mark.parametrize("method", ["kruskal", "mst_ids"])
def test_malformed_graphs_rejected(method):
    fn = kruskal_mst if method == "kruskal" else mst_ids
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


@pytest.mark.parametrize("backend", ["reference", "array"])
@pytest.mark.parametrize("side", ["boruvka", "kruskal"])
def test_every_mst_consumer_matches_the_kruskal_oracle(side, backend, monkeypatch):
    """Every consumer of the MST stage builds Kruskal's tree, whichever
    algorithm the density threshold picks (forced here by moving the
    threshold) and on either backend (where the consumer takes one)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    from repro.cluster.graph_linkage import graph_single_linkage
    from repro.cluster.hdbscan_lite import hdbscan_lite
    from repro.cluster.image import alpha_tree, grid_graph
    from repro.cluster.knn import complete_graph, knn_graph, pairwise_distances
    from repro.cluster.single_linkage import single_linkage
    from repro.core.api import single_linkage_dendrogram
    from repro.core.dynamic import DynamicSLD
    from repro.trees.wtree import WeightedTree

    monkeypatch.setattr(mst, "KRUSKAL_DENSITY", 0 if side == "kruskal" else 2**40)
    rng = np.random.default_rng(11)

    def expect(tree, n, edges, weights):
        ids = np.sort(kruskal_mst(n, edges, weights))
        assert np.array_equal(tree.edges, edges[ids])
        assert tree.weights.tobytes() == weights[ids].tobytes()
        return ids

    # k-NN and complete-graph point pipelines, on tied coordinates; the
    # dense Prim behind k=None also past 1024 points.
    pts = rng.integers(0, 8, size=(150, 2)).astype(np.float64)
    expect(single_linkage(pts, k=8, backend=backend).mst, *knn_graph(pts, 8))
    expect(single_linkage(pts[:60], backend=backend).mst, *complete_graph(pts[:60]))
    big = np.random.default_rng(12).integers(0, 40, size=(1030, 2)).astype(np.float64)
    expect(single_linkage(big, backend=backend).mst, *complete_graph(big))

    # HDBSCAN*'s mutual-reachability complete graph.
    res = hdbscan_lite(pts[:80], min_samples=4)
    n = 80
    iu, ju = np.triu_indices(n, k=1)
    core = res.core_distances
    mreach = np.maximum(np.maximum(core[iu], core[ju]), pairwise_distances(pts[:80])[iu, ju])
    expect(res.mst, n, np.stack([iu, ju], axis=1).astype(np.int64), mreach)

    # A tie-heavy image grid.
    image = rng.integers(0, 3, size=(12, 17)).astype(np.float64)
    expect(alpha_tree(image).mst, *grid_graph(image))

    # The dynamic engine: MST slots, the rest in the reserve, parents.
    n, edges, weights = random_connected_graph(rng, 60, extra=90)
    weights = rng.integers(0, 4, size=weights.size).astype(np.float64)
    dyn = DynamicSLD.from_graph(n, edges, weights)
    ids = expect(dyn.tree(), n, edges, weights)
    rest = np.setdiff1d(np.arange(edges.shape[0]), ids)
    lo, hi = np.sort(edges[rest], axis=1).T
    assert dyn.reserve_size == rest.size
    assert np.array_equal(np.sort(dyn._res_code[: dyn.reserve_size]), np.sort(lo * n + hi))
    expected = single_linkage_dendrogram(dyn.tree(), algorithm="sequf", backend="reference")
    assert np.array_equal(dyn.parents, expected.parents)

    # A disconnected graph: the bridges join the components last.
    parts = [random_connected_graph(rng, size, extra=size) for size in (9, 1, 14)]
    offsets = np.cumsum([0, 9, 1])
    edges = np.concatenate([e.reshape(-1, 2) + off for (_, e, _), off in zip(parts, offsets)])
    weights = rng.integers(0, 3, size=edges.shape[0]).astype(np.float64)
    n = 24
    res = graph_single_linkage(n, edges, weights, backend=backend)
    ones = np.ones(edges.shape[0])
    _, labels = connected_components(coo_matrix((ones, edges.T), shape=(n, n)), directed=False)
    reps = np.sort(np.unique(labels, return_index=True)[1])
    bridges = np.stack([reps[:-1], reps[1:]], axis=1)
    all_edges = np.concatenate([edges, bridges])
    all_weights = np.concatenate([weights, weights.max() + 1.0 + np.arange(len(bridges))])
    expect(res.mst, n, all_edges, all_weights)
    assert res.n_components == 3
    assert sorted(res.mst.ranks[res.bridge_edges].tolist()) == [n - 3, n - 2]
