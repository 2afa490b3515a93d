"""Cophenetic distances and ASCII rendering."""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
import scipy.spatial.distance as ssd
from hypothesis import given, settings

from conftest import make_tree, weighted_trees
from repro.cluster.single_linkage import single_linkage
from repro.core.api import single_linkage_dendrogram
from repro.dendrogram.cophenet import cophenetic_distance, cophenetic_matrix
from repro.dendrogram.lca import DendrogramIndex
from repro.dendrogram.render import render_dendrogram
from repro.trees.generators import random_tree
from repro.trees.weights import apply_scheme


class TestCophenet:
    def test_matches_scipy_cophenet(self, rng):
        pts = rng.random((30, 2))
        res = single_linkage(pts)
        ours = cophenetic_matrix(res.dendrogram)
        Z = sch.linkage(ssd.pdist(pts), method="single")
        theirs = ssd.squareform(sch.cophenet(Z))
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(tree=weighted_trees(max_n=20))
    def test_pairwise_matches_matrix(self, tree):
        dend = single_linkage_dendrogram(tree, algorithm="rctt")
        mat = cophenetic_matrix(dend)
        for u in range(tree.n):
            for v in range(u, tree.n):
                assert cophenetic_distance(dend, u, v) == pytest.approx(mat[u, v])

    @settings(max_examples=30, deadline=None)
    @given(tree=weighted_trees(max_n=20))
    def test_is_minimax_path_weight(self, tree):
        """Cophenetic distance == bottleneck (max-weight) edge on the tree
        path, the classic single-linkage characterization."""
        import networkx as nx

        g = nx.Graph()
        for e in range(tree.m):
            g.add_edge(int(tree.edges[e, 0]), int(tree.edges[e, 1]), eid=e)
        dend = single_linkage_dendrogram(tree)
        ranks = tree.ranks
        for u in range(min(tree.n, 8)):
            for v in range(u + 1, min(tree.n, 8)):
                path = nx.shortest_path(g, u, v)
                eids = [g[a][b]["eid"] for a, b in zip(path, path[1:])]
                bottleneck = max(eids, key=lambda e: ranks[e])
                assert cophenetic_distance(dend, u, v) == pytest.approx(
                    float(tree.weights[bottleneck])
                )

    def test_identity_is_zero(self, small_tree):
        dend = single_linkage_dendrogram(small_tree)
        assert cophenetic_distance(dend, 3, 3) == 0.0

    def test_out_of_range(self, small_tree):
        dend = single_linkage_dendrogram(small_tree)
        with pytest.raises(ValueError, match="vertices"):
            cophenetic_distance(dend, 0, 99)

    def test_ultrametric_property(self, rng):
        """Cophenetic distances form an ultrametric:
        d(u,w) <= max(d(u,v), d(v,w))."""
        pts = rng.random((15, 2))
        res = single_linkage(pts)
        mat = cophenetic_matrix(res.dendrogram)
        for u in range(15):
            for v in range(15):
                for w in range(15):
                    assert mat[u, w] <= max(mat[u, v], mat[v, w]) + 1e-12

    def test_dendrogram_method(self, small_tree):
        dend = single_linkage_dendrogram(small_tree)
        assert dend.cophenetic_distance(0, 7) > 0

    def test_pairwise_cost_is_not_linear_in_n(self):
        """One pair reads two vertices' incident edges and walks two
        spines, O(h); a pass over all n vertices per call (~80 ms each at
        this size) would take seconds for the 50 calls."""
        n = 20_000
        tree = random_tree(n, seed=1).with_weights(apply_scheme("perm", n - 1, seed=2))
        dend = single_linkage_dendrogram(tree, algorithm="sequf")
        pairs = np.random.default_rng(3).integers(0, n, size=(50, 2))
        want = DendrogramIndex(dend).merge_heights(pairs).tolist()
        cophenetic_distance(dend, 0, 1)  # builds the tree's cached adjacency
        start = time.perf_counter()
        got = [cophenetic_distance(dend, u, v) for u, v in pairs.tolist()]
        elapsed = time.perf_counter() - start
        assert got == want
        assert elapsed < 0.5, f"50 cophenetic_distance calls took {elapsed:.2f} s"


class TestRender:
    def test_contains_every_node_and_leaf(self, small_tree):
        dend = single_linkage_dendrogram(small_tree)
        text = render_dendrogram(dend)
        for e in range(small_tree.m):
            assert f"edge {e} " in text
        for v in range(small_tree.n):
            assert f"vertex {v}" in text

    def test_root_on_first_line(self, small_tree):
        dend = single_linkage_dendrogram(small_tree)
        first = render_dendrogram(dend).splitlines()[0]
        assert f"edge {dend.root} " in first

    def test_no_leaves_mode(self, small_tree):
        dend = single_linkage_dendrogram(small_tree)
        assert "vertex" not in render_dendrogram(dend, show_leaves=False)

    def test_deep_chain_does_not_recurse(self):
        """A 1500-node chain must render without hitting the recursion
        limit (the walk is iterative)."""
        from repro.trees.weights import apply_scheme

        tree = make_tree("path", 1500).with_weights(apply_scheme("sorted", 1499))
        dend = single_linkage_dendrogram(tree)
        text = dend.render(show_leaves=False)
        assert text.count("\n") == 1498

    def test_size_guard(self):
        from repro.trees.weights import apply_scheme

        tree = make_tree("path", 2502).with_weights(apply_scheme("perm", 2501, seed=0))
        dend = single_linkage_dendrogram(tree)
        with pytest.raises(ValueError, match="capped"):
            dend.render()

    def test_single_vertex(self):
        dend = single_linkage_dendrogram(make_tree("path", 1))
        assert "empty" in render_dendrogram(dend)


class TestMatrixRegression:
    """Pin the np.ix_ block-assignment rewrite to the pre-fix pair loop."""

    @staticmethod
    def _matrix_reference(dend):
        """The old cophenetic_matrix inner loop: one write per leaf pair."""
        from repro.structures.unionfind import UnionFind

        tree = dend.tree
        n = tree.n
        out = np.zeros((n, n), dtype=np.float64)
        if tree.m == 0:
            return out
        order = np.argsort(tree.ranks)
        members = {v: [v] for v in range(n)}
        uf = UnionFind(n)
        for e in order:
            u, v = int(tree.edges[e, 0]), int(tree.edges[e, 1])
            ru, rv = uf.find(u), uf.find(v)
            A, B = members.pop(ru), members.pop(rv)
            w = float(tree.weights[e])
            for a in A:
                for b in B:
                    out[a, b] = w
                    out[b, a] = w
            r = uf.union(ru, rv)
            if len(A) < len(B):
                B.extend(A)
                members[r] = B
            else:
                A.extend(B)
                members[r] = A
        return out

    @settings(max_examples=25, deadline=None)
    @given(tree=weighted_trees(max_n=30))
    def test_bit_identical_to_pair_loop(self, tree):
        dend = single_linkage_dendrogram(tree, algorithm="sequf")
        np.testing.assert_array_equal(
            cophenetic_matrix(dend), self._matrix_reference(dend)
        )

    def test_singleton(self):
        dend = single_linkage_dendrogram(make_tree("path", 1), algorithm="sequf")
        assert cophenetic_matrix(dend).shape == (1, 1)
