"""Extended clustering modules: graph linkage, NN-chain HAC, alpha-trees,
and the LCA-indexed cophenetic queries."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
import scipy.spatial.distance as ssd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.graph_linkage import graph_single_linkage
from repro.cluster.hac import LINKAGE_METHODS, nn_chain_linkage
from repro.cluster.image import alpha_tree, grid_graph
from repro.cluster.single_linkage import single_linkage
from repro.dendrogram.cophenet import cophenetic_matrix
from repro.dendrogram.lca import DendrogramIndex
from repro.errors import InvalidGraphError


class TestGraphLinkage:
    def test_connected_graph(self, rng):
        n = 20
        from test_trees_mst import random_connected_graph

        n, edges, weights = random_connected_graph(rng, n)
        res = graph_single_linkage(n, edges, weights)
        assert res.n_components == 1
        assert res.bridge_edges.size == 0
        assert res.mst.m == n - 1

    def test_disconnected_components_preserved(self):
        # two triangles, no connection
        edges = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
        weights = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        res = graph_single_linkage(6, edges, weights)
        assert res.n_components == 2
        assert res.bridge_edges.size == 1
        labels = res.labels_at(3.5)  # above every real weight, below bridge
        assert np.unique(labels).size == 2
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]

    def test_bridges_are_top_merges(self):
        edges = np.array([[0, 1], [2, 3], [4, 5]])
        weights = np.array([1.0, 1.0, 1.0])
        res = graph_single_linkage(6, edges, weights)
        assert res.n_components == 3
        ranks = res.mst.ranks
        bridge_ranks = sorted(int(ranks[e]) for e in res.bridge_edges)
        assert bridge_ranks == [3, 4]  # the two max ranks

    @pytest.mark.parametrize("mst_method", ["kruskal", "boruvka"])
    def test_mst_methods(self, rng, mst_method, monkeypatch):
        from test_trees_mst import random_connected_graph

        from repro.trees import mst

        # Force each side of the density threshold: the tree is Kruskal's.
        monkeypatch.setattr(mst, "KRUSKAL_DENSITY", 0 if mst_method == "kruskal" else 2**40)
        n, edges, weights = random_connected_graph(rng, 18)
        res = graph_single_linkage(n, edges, weights)
        assert res.dendrogram.m == n - 1
        ids = np.sort(mst.kruskal_mst(n, edges, weights))
        assert np.array_equal(res.mst.edges, edges[ids])

    def test_mst_method_keyword_accepts_only_boruvka(self):
        edges, weights = np.array([[0, 1], [1, 2]]), np.array([1.0, 2.0])
        res = graph_single_linkage(3, edges, weights, mst_method="boruvka")
        assert res.dendrogram.m == 2
        for name in ("kruskal", "prim"):
            with pytest.raises(ValueError, match="MST method"):
                graph_single_linkage(3, edges, weights, mst_method=name)

    def test_malformed(self):
        with pytest.raises(InvalidGraphError, match="shape"):
            graph_single_linkage(3, np.array([0, 1]), np.ones(1))
        with pytest.raises(InvalidGraphError, match="one weight"):
            graph_single_linkage(3, np.array([[0, 1]]), np.ones(2))

    def test_out_of_range_endpoints_rejected(self):
        """Validated before the component pass: no raw IndexError for an
        endpoint >= n, no silent wrap for a negative one."""
        for bad in ([0, 5], [-1, 2]):
            with pytest.raises(InvalidGraphError, match="endpoints"):
                graph_single_linkage(3, np.array([bad, [1, 2]]), np.array([1.0, 2.0]))

    def test_bridge_rule_is_smallest_vertex_chain(self):
        """Each component is represented by its smallest vertex, chained
        in increasing order -- whatever the edge order or orientation."""
        res = graph_single_linkage(4, np.array([[1, 0], [2, 3]]), np.array([1.0, 2.0]))
        assert res.mst.edges[res.bridge_edges].tolist() == [[0, 2]]
        res = graph_single_linkage(
            6, np.array([[5, 3], [4, 1], [2, 0]]), np.array([1.0, 2.0, 3.0])
        )
        assert sorted(res.mst.edges[res.bridge_edges].tolist()) == [[0, 1], [1, 3]]


class TestNNChain:
    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy(self, method, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((40, 3))
        Z = nn_chain_linkage(pts, method=method)
        Zs = sch.linkage(ssd.pdist(pts), method=method)
        np.testing.assert_allclose(Z[:, 2], Zs[:, 2], atol=1e-9)
        for k in (2, 5):
            a = sch.fcluster(Z, k, criterion="maxclust")
            b = sch.fcluster(Zs, k, criterion="maxclust")
            np.testing.assert_array_equal(
                a[:, None] == a[None, :], b[:, None] == b[None, :]
            )

    def test_linkage_is_valid(self, rng):
        pts = rng.random((25, 2))
        Z = nn_chain_linkage(pts, method="complete")
        sch.is_valid_linkage(Z, throw=True)

    def test_single_matches_mst_pipeline(self, rng):
        """NN-chain single linkage == the MST + dendrogram route."""
        pts = rng.random((30, 2))
        Z_chain = nn_chain_linkage(pts, method="single")
        Z_tree = single_linkage(pts).linkage_matrix()
        np.testing.assert_allclose(np.sort(Z_chain[:, 2]), np.sort(Z_tree[:, 2]))

    def test_duplicate_points_terminate(self):
        pts = np.zeros((6, 2))
        Z = nn_chain_linkage(pts, method="average")
        assert Z.shape == (5, 4)
        assert (Z[:, 2] == 0).all()

    def test_bad_method(self):
        with pytest.raises(ValueError, match="linkage"):
            nn_chain_linkage(np.zeros((3, 2)), method="ward")

    def test_too_few_points(self):
        with pytest.raises(InvalidGraphError):
            nn_chain_linkage(np.zeros((1, 2)))


class TestAlphaTree:
    def test_grid_graph_counts(self):
        n, edges, weights = grid_graph(np.zeros((3, 4)))
        assert n == 12
        assert edges.shape[0] == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_step_image_two_segments(self):
        img = np.zeros((6, 8))
        img[:, 4:] = 10.0
        at = alpha_tree(img)
        seg = at.segment(0.5)
        assert np.unique(seg).size == 2
        assert (seg[:, :4] == seg[0, 0]).all()
        assert (seg[:, 4:] == seg[0, 4]).all()

    def test_alpha_monotone_segments(self):
        rng = np.random.default_rng(0)
        img = rng.random((10, 10))
        at = alpha_tree(img)
        counts = [at.n_segments(a) for a in (0.0, 0.2, 0.5, 1.5)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 1

    def test_gradient_image_chains(self):
        img = np.arange(12, dtype=float).reshape(1, 12)
        at = alpha_tree(img)
        assert at.n_segments(0.5) == 12
        assert at.n_segments(1.0) == 1

    def test_multichannel(self):
        img = np.zeros((4, 4, 3))
        img[2:, :, 1] = 5.0
        at = alpha_tree(img)
        assert at.n_segments(1.0) == 2

    def test_single_pixel(self):
        at = alpha_tree(np.zeros((1, 1)))
        assert at.segment(0.0).shape == (1, 1)

    def test_bad_image(self):
        with pytest.raises(InvalidGraphError, match="image"):
            grid_graph(np.zeros((2, 2, 2, 2)))


class TestDendrogramIndex:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_matches_cophenetic_matrix(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((18, 2))
        res = single_linkage(pts)
        idx = DendrogramIndex(res.dendrogram)
        mat = cophenetic_matrix(res.dendrogram)
        iu, ju = np.triu_indices(18, k=1)
        got = idx.merge_heights(np.stack([iu, ju], axis=1))
        np.testing.assert_allclose(got, mat[iu, ju])

    def test_merge_node_is_lca(self, small_tree):
        from repro.core.api import single_linkage_dendrogram

        dend = single_linkage_dendrogram(small_tree)
        idx = DendrogramIndex(dend)
        node = idx.merge_node(0, 7)
        # merging node must be an ancestor of both leaf parents
        from repro.dendrogram.linkage import leaf_parents

        lp = leaf_parents(small_tree)
        assert node in dend.spine(int(lp[0]))
        assert node in dend.spine(int(lp[7]))

    def test_same_vertex(self, small_tree):
        from repro.core.api import single_linkage_dendrogram

        idx = DendrogramIndex(single_linkage_dendrogram(small_tree))
        assert idx.merge_height(3, 3) == 0.0
        with pytest.raises(ValueError, match="itself"):
            idx.merge_node(3, 3)

    def test_out_of_range(self, small_tree):
        from repro.core.api import single_linkage_dendrogram

        idx = DendrogramIndex(single_linkage_dendrogram(small_tree))
        with pytest.raises(ValueError, match="vertices"):
            idx.merge_node(0, 99)

    def test_bad_pairs_shape(self, small_tree):
        from repro.core.api import single_linkage_dendrogram

        idx = DendrogramIndex(single_linkage_dendrogram(small_tree))
        with pytest.raises(ValueError, match="pairs"):
            idx.merge_heights(np.zeros(4, dtype=np.int64))

    def test_cophenetic_correlation_perfect_on_ultrametric(self, rng):
        """Correlating the cophenetic matrix with itself gives 1.0."""
        pts = rng.random((15, 2))
        res = single_linkage(pts)
        idx = DendrogramIndex(res.dendrogram)
        mat = cophenetic_matrix(res.dendrogram)
        assert idx.cophenetic_correlation(mat) == pytest.approx(1.0)

    def test_correlation_bad_shape(self, small_tree):
        from repro.core.api import single_linkage_dendrogram

        idx = DendrogramIndex(single_linkage_dendrogram(small_tree))
        with pytest.raises(ValueError, match="reference"):
            idx.cophenetic_correlation(np.zeros((3, 3)))

    def test_deep_chain_dendrogram(self):
        """Binary lifting must handle h = m (sorted path)."""
        from conftest import make_tree
        from repro.core.api import single_linkage_dendrogram
        from repro.trees.weights import apply_scheme

        tree = make_tree("path", 300).with_weights(apply_scheme("sorted", 299))
        dend = single_linkage_dendrogram(tree)
        idx = DendrogramIndex(dend)
        # vertices 0 and 299 merge at the last (heaviest) edge
        assert idx.merge_node(0, 299) == 298
