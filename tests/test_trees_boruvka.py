"""Boruvka MST: agreement with Kruskal, round bound, instrumentation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotConnectedError
from repro.runtime.cost_model import CostTracker
from repro.trees.boruvka import boruvka_mst, boruvka_rounds
from repro.trees.mst import kruskal_mst
from repro.trees.validation import validate_tree_edges
from repro.trees.wtree import WeightedTree
from test_trees_mst import random_connected_graph, with_parallel_edges


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**31 - 1))
def test_agrees_with_kruskal(n, seed):
    rng = np.random.default_rng(seed)
    n, edges, weights = random_connected_graph(rng, n)
    b = boruvka_mst(n, edges, weights)
    k = kruskal_mst(n, edges, weights)
    assert sorted(b.tolist()) == sorted(k.tolist())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**31 - 1))
def test_logarithmic_rounds(n, seed):
    rng = np.random.default_rng(seed)
    n, edges, weights = random_connected_graph(rng, n, extra=2 * n)
    _, rounds = boruvka_rounds(n, edges, weights)
    assert rounds <= math.ceil(math.log2(n)) + 1


def test_disconnected_raises():
    edges = np.array([[0, 1], [2, 3]], dtype=np.int64)
    with pytest.raises(NotConnectedError):
        boruvka_mst(4, edges, np.ones(2))


def test_ties_resolved_consistently():
    """Unit weights: rank tie-breaking by edge id must still yield a valid
    spanning tree identical to Kruskal's choice."""
    rng = np.random.default_rng(3)
    n, edges, _ = random_connected_graph(rng, 25, extra=40)
    weights = np.ones(edges.shape[0])
    b = boruvka_mst(n, edges, weights)
    k = kruskal_mst(n, edges, weights)
    assert sorted(b.tolist()) == sorted(k.tolist())


def test_tracker_charges_per_round():
    rng = np.random.default_rng(1)
    n, edges, weights = random_connected_graph(rng, 64, extra=128)
    tracker = CostTracker()
    _, rounds = boruvka_rounds(n, edges, weights, tracker=tracker)
    assert tracker.work >= edges.shape[0]  # first round scans every edge
    assert tracker.depth <= rounds * (math.log2(n) + 2)


def test_boruvka_tree_is_weighted_tree():
    rng = np.random.default_rng(2)
    n, edges, weights = random_connected_graph(rng, 30)
    ids = boruvka_mst(n, edges, weights)
    tree = WeightedTree(n, edges[ids], weights[ids])
    assert tree.n == n and tree.m == n - 1
    validate_tree_edges(tree.n, tree.edges)


def test_single_vertex_graph():
    ids = boruvka_mst(1, np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    assert ids.shape == (0,)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**31 - 1))
def test_array_backend_bit_identical(n, seed):
    """The vectorized spanning-forest kernel must reproduce the reference
    round loop exactly: same edge ids AND same round count, on the simple
    graph and on a multigraph of it (parallel edges, both orientations,
    tied weights)."""
    rng = np.random.default_rng(seed)
    n, edges, weights = random_connected_graph(rng, n, extra=2 * n)
    if seed % 2:  # every other example: heavy ties through the rank order
        weights = rng.integers(0, 3, size=weights.size).astype(np.float64)
    for e, w in ((edges, weights), with_parallel_edges(rng, edges, weights)):
        ref_ids, ref_rounds = boruvka_rounds(n, e, w, backend="reference")
        arr_ids, arr_rounds = boruvka_rounds(n, e, w, backend="array")
        assert np.array_equal(arr_ids, ref_ids)
        assert arr_rounds == ref_rounds


def test_unknown_backend_rejected():
    from repro.errors import AlgorithmError

    with pytest.raises(AlgorithmError, match="unknown backend"):
        boruvka_mst(2, np.array([[0, 1]]), np.ones(1), backend="numpy")


def test_array_backend_delegates_under_tracker():
    """backend="array" with an enabled tracker must still charge the
    reference loop's work/depth (the fast-twin delegation convention)."""
    rng = np.random.default_rng(4)
    n, edges, weights = random_connected_graph(rng, 48, extra=96)
    t_ref, t_arr = CostTracker(), CostTracker()
    ref = boruvka_mst(n, edges, weights, tracker=t_ref, backend="reference")
    arr = boruvka_mst(n, edges, weights, tracker=t_arr, backend="array")
    assert np.array_equal(ref, arr)
    assert (t_arr.work, t_arr.depth) == (t_ref.work, t_ref.depth)
    assert t_ref.work > 0.0


def test_array_backend_disconnected_raises():
    edges = np.array([[0, 1], [2, 3]], dtype=np.int64)
    with pytest.raises(NotConnectedError):
        boruvka_mst(4, edges, np.ones(2), backend="array")
