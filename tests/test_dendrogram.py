"""Dendrogram structure, validation, metrics, and SciPy interop."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
import scipy.spatial.distance as ssd
from hypothesis import given, settings

from conftest import make_tree, weighted_trees
from repro.core.api import single_linkage_dendrogram
from repro.core.brute import brute_force_sld
from repro.dendrogram.linkage import cut_height, cut_k, leaf_parents, to_scipy_linkage
from repro.dendrogram.metrics import dendrogram_height, level_widths, node_depths
from repro.dendrogram.structure import Dendrogram
from repro.dendrogram.validate import check_same_dendrogram, validate_parents
from repro.errors import InvalidDendrogramError
from repro.fuzz.generators import TOPOLOGY_FAMILIES, WEIGHT_FAMILIES, _make_topology
from repro.trees.mst import minimum_spanning_tree
from repro.trees.weights import apply_scheme


class TestValidation:
    def test_valid_passes(self, small_tree):
        validate_parents(brute_force_sld(small_tree), small_tree.ranks)

    def test_two_roots_rejected(self):
        with pytest.raises(InvalidDendrogramError, match="one root"):
            validate_parents(np.array([0, 1, 1]), np.array([0, 2, 1]))

    def test_rank_violation_rejected(self):
        # node 1 (rank 2 = max) must be root; here node 2 self-loops instead
        with pytest.raises(InvalidDendrogramError):
            validate_parents(np.array([1, 2, 2]), np.array([0, 2, 1]))

    def test_out_of_range_parent(self):
        with pytest.raises(InvalidDendrogramError, match="out-of-range"):
            validate_parents(np.array([5, 1]), np.array([0, 1]))

    def test_root_must_be_max_rank(self):
        # root is node 0 but its rank is 0
        with pytest.raises(InvalidDendrogramError, match="max-rank"):
            validate_parents(np.array([0, 0]), np.array([0, 1]))

    def test_length_mismatch(self):
        with pytest.raises(InvalidDendrogramError, match="ranks"):
            validate_parents(np.array([0]), np.array([0, 1]))

    def test_empty_ok(self):
        validate_parents(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def test_same_dendrogram(self):
        assert check_same_dendrogram(np.array([1, 1]), np.array([1, 1]))
        assert not check_same_dendrogram(np.array([1, 1]), np.array([0, 1]))
        assert not check_same_dendrogram(np.array([1, 1]), np.array([1, 1, 2]))


class TestStructure:
    def test_root_and_spine(self, small_tree):
        dend = single_linkage_dendrogram(small_tree, algorithm="brute")
        root = dend.root
        assert dend.parent(root) == root
        spine = dend.spine(int(np.argmin(small_tree.ranks)))
        assert spine[-1] == root
        ranks = small_tree.ranks
        assert all(ranks[a] < ranks[b] for a, b in zip(spine, spine[1:]))

    def test_children_inverse_of_parents(self, small_tree):
        dend = single_linkage_dendrogram(small_tree, algorithm="brute")
        kids = dend.children()
        for e in range(dend.m):
            p = dend.parent(e)
            if p != e:
                assert e in kids[p]

    def test_equality(self, small_tree):
        a = single_linkage_dendrogram(small_tree, algorithm="brute")
        b = single_linkage_dendrogram(small_tree, algorithm="rctt")
        assert a == b
        assert not (a == "something")
        assert (a == "something") is False or True  # NotImplemented path

    def test_empty_dendrogram_root_raises(self):
        tree = make_tree("path", 1)
        dend = single_linkage_dendrogram(tree)
        with pytest.raises(ValueError, match="empty"):
            dend.root


class TestMetrics:
    def test_sorted_path_is_a_chain(self):
        tree = make_tree("path", 10).with_weights(apply_scheme("sorted", 9))
        parents = brute_force_sld(tree)
        assert dendrogram_height(parents, tree.ranks) == 9
        assert level_widths(parents, tree.ranks).tolist() == [1] * 9

    def test_balanced_weights_give_log_height(self):
        """A path with 'tournament' weights yields a perfectly balanced
        dendrogram of height log2(n)."""
        n = 64
        # weight of edge i = number of trailing ones of i (bit-reversal style
        # tournament): merge pairs, then pairs of pairs, ...
        w = np.array([bin(i + 1)[::-1].index("1") for i in range(n - 1)], dtype=float)
        tree = make_tree("path", n).with_weights(w)
        parents = brute_force_sld(tree)
        assert dendrogram_height(parents, tree.ranks) == 6

    def test_depths_root_is_one(self, small_tree):
        parents = brute_force_sld(small_tree)
        depths = node_depths(parents, small_tree.ranks)
        root = int(np.flatnonzero(parents == np.arange(7))[0])
        assert depths[root] == 1
        assert depths.min() == 1

    def test_empty(self):
        assert dendrogram_height(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)) == 0
        assert level_widths(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)).size == 0

    @settings(max_examples=30, deadline=None)
    @given(tree=weighted_trees(max_n=30))
    def test_level_widths_sum_to_m(self, tree):
        parents = brute_force_sld(tree)
        assert level_widths(parents, tree.ranks).sum() == tree.m

    @settings(max_examples=30, deadline=None)
    @given(tree=weighted_trees(max_n=30))
    def test_height_bounds(self, tree):
        """floor(log2 m)+1-ish lower bound and m upper bound (paper Sec 1)."""
        parents = brute_force_sld(tree)
        h = dendrogram_height(parents, tree.ranks)
        assert 1 <= h <= tree.m
        # binary tree on m nodes needs height >= log2(m+1)
        assert 2**h >= tree.m + 1 or h == tree.m


class TestLinkageInterop:
    def _points_tree(self, seed, n=40):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 3))
        iu, ju = np.triu_indices(n, k=1)
        dm = ssd.squareform(ssd.pdist(pts))
        tree = minimum_spanning_tree(n, np.stack([iu, ju], 1), dm[iu, ju])
        return pts, tree

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linkage_heights_match_scipy(self, seed):
        pts, tree = self._points_tree(seed)
        Z = to_scipy_linkage(tree)
        Zs = sch.linkage(ssd.pdist(pts), method="single")
        np.testing.assert_allclose(Z[:, 2], Zs[:, 2])

    @pytest.mark.parametrize("seed", [0, 3])
    def test_flat_clusters_match_scipy(self, seed):
        pts, tree = self._points_tree(seed)
        Zs = sch.linkage(ssd.pdist(pts), method="single")
        for k in (2, 3, 5):
            ours = cut_k(tree, k)
            theirs = sch.fcluster(Zs, k, criterion="maxclust")
            # same partition up to label names
            pairs_ours = ours[:, None] == ours[None, :]
            pairs_theirs = theirs[:, None] == theirs[None, :]
            np.testing.assert_array_equal(pairs_ours, pairs_theirs)

    def test_linkage_is_monotone(self, small_tree):
        Z = to_scipy_linkage(small_tree)
        assert (np.diff(Z[:, 2]) >= 0).all()
        assert Z[-1, 3] == small_tree.n

    def test_linkage_valid_for_scipy(self, small_tree):
        Z = to_scipy_linkage(small_tree)
        sch.is_valid_linkage(Z, throw=True)

    def test_cut_height_extremes(self, small_tree):
        w = small_tree.weights
        all_merged = cut_height(small_tree, w.max())
        assert (all_merged == 0).all()
        none_merged = cut_height(small_tree, w.min() - 1)
        assert np.unique(none_merged).size == small_tree.n

    def test_cut_k_bounds(self, small_tree):
        assert np.unique(cut_k(small_tree, 1)).size == 1
        assert np.unique(cut_k(small_tree, small_tree.n)).size == small_tree.n
        with pytest.raises(ValueError, match="k must be"):
            cut_k(small_tree, 0)
        with pytest.raises(ValueError, match="k must be"):
            cut_k(small_tree, small_tree.n + 1)

    def test_leaf_parents_min_rank_incident(self, small_tree):
        lp = leaf_parents(small_tree)
        ranks = small_tree.ranks
        for v in range(small_tree.n):
            _, incident = small_tree.neighbors(v)
            assert lp[v] == incident[np.argmin(ranks[incident])]

    def test_leaf_parents_singleton(self):
        tree = make_tree("path", 1)
        assert leaf_parents(tree).tolist() == [-1]

    @pytest.mark.parametrize("family", TOPOLOGY_FAMILIES)
    @pytest.mark.parametrize("weights", ["duplicates", "all-equal", "perm"])
    @pytest.mark.parametrize("n", [1, 2, 41])
    def test_leaf_parents_match_a_scalar_argmin(self, family, weights, n):
        """Each vertex hangs off its incident edge of lowest rank (ties in
        weight broken by edge id): a per-edge scalar scan, no adjacency."""
        rng = np.random.default_rng(n)
        tree = _make_topology(family, n, rng)
        tree = tree.with_weights(WEIGHT_FAMILIES[weights](rng, tree.m))
        ranks = tree.ranks
        want = [-1] * n
        for e, (u, v) in enumerate(tree.edges.tolist()):
            for x in (u, v):
                if want[x] < 0 or ranks[e] < ranks[want[x]]:
                    want[x] = e
        got = leaf_parents(tree)
        assert got.dtype == np.int64 and got.tolist() == want

    def test_dendrogram_object_delegates(self, small_tree):
        dend = single_linkage_dendrogram(small_tree)
        Z = dend.to_linkage()
        assert Z.shape == (7, 4)
        labels = dend.cut_k(3)
        assert np.unique(labels).size == 3
        labels2 = dend.cut_height(float(np.median(small_tree.weights)))
        assert labels2.shape == (8,)
