"""Clustering pipelines: k-NN graphs, single linkage, HDBSCAN-lite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
import scipy.spatial.distance as ssd

from repro.cluster.hdbscan_lite import hdbscan_lite
from repro.cluster.knn import complete_graph, knn_graph, pairwise_distances
from repro.cluster.single_linkage import single_linkage
from repro.datasets.points import gaussian_blobs, noisy_rings
from repro.errors import InvalidGraphError
from repro.structures.unionfind import UnionFind
from repro.trees import mst


class TestPairwiseDistances:
    def test_matches_scipy(self, rng):
        pts = rng.random((30, 4))
        np.testing.assert_allclose(
            pairwise_distances(pts), ssd.squareform(ssd.pdist(pts)), atol=1e-9
        )

    def test_rejects_1d(self):
        with pytest.raises(InvalidGraphError, match="2-D"):
            pairwise_distances(np.zeros(5))


class TestCompleteGraph:
    def test_edge_count(self, rng):
        pts = rng.random((10, 2))
        n, edges, weights = complete_graph(pts)
        assert n == 10
        assert edges.shape == (45, 2)
        assert weights.shape == (45,)

    def test_weights_are_distances(self, rng):
        pts = rng.random((6, 2))
        _, edges, weights = complete_graph(pts)
        for (u, v), w in zip(edges, weights):
            assert w == pytest.approx(np.linalg.norm(pts[u] - pts[v]))


class TestKnnGraph:
    def test_each_vertex_covered(self, rng):
        pts = rng.random((40, 2))
        n, edges, _ = knn_graph(pts, k=3)
        present = np.zeros(n, dtype=bool)
        present[edges.reshape(-1)] = True
        assert present.all()

    def test_contains_nearest_neighbor(self, rng):
        pts = rng.random((25, 2))
        _, edges, _ = knn_graph(pts, k=1)
        dm = pairwise_distances(pts)
        np.fill_diagonal(dm, np.inf)
        pairs = {tuple(sorted(e)) for e in edges.tolist()}
        for i in range(25):
            j = int(np.argmin(dm[i]))
            assert tuple(sorted((i, j))) in pairs

    def test_connectivity_bridging(self, rng):
        """Two far-apart blobs with tiny k: the graph must still span."""
        a = rng.random((15, 2))
        b = rng.random((15, 2)) + 100.0
        pts = np.concatenate([a, b])
        n, edges, _ = knn_graph(pts, k=2, ensure_connected=True)
        uf = UnionFind(n)
        for u, v in edges:
            if not uf.connected(int(u), int(v)):
                uf.union(int(u), int(v))
        assert uf.num_sets == 1

    def test_disconnected_without_bridging(self, rng):
        a = rng.random((10, 2))
        b = rng.random((10, 2)) + 100.0
        pts = np.concatenate([a, b])
        n, edges, _ = knn_graph(pts, k=2, ensure_connected=False)
        uf = UnionFind(n)
        for u, v in edges:
            if not uf.connected(int(u), int(v)):
                uf.union(int(u), int(v))
        assert uf.num_sets == 2

    def test_bad_k(self, rng):
        pts = rng.random((5, 2))
        with pytest.raises(InvalidGraphError, match="k must be"):
            knn_graph(pts, k=5)
        with pytest.raises(InvalidGraphError, match="k must be"):
            knn_graph(pts, k=0)

    def test_too_few_points(self):
        with pytest.raises(InvalidGraphError, match="two points"):
            knn_graph(np.zeros((1, 2)), k=1)

    def test_rejects_1d(self):
        with pytest.raises(InvalidGraphError, match="2-D"):
            knn_graph(np.zeros(5), k=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build",
    [
        pairwise_distances,
        complete_graph,
        lambda pts: knn_graph(pts, k=1),
        lambda pts: single_linkage(pts, k=1),
        lambda pts: single_linkage(pts),
    ],
    ids=["pairwise", "complete", "knn", "single-linkage-knn", "single-linkage-complete"],
)
def test_non_finite_points_rejected(build, bad):
    """A NaN or inf coordinate is an input error, not a NaN/inf edge weight
    (or a self loop the MST stage would report)."""
    pts = np.array([[0.0, 0.0], [1.0, bad], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(InvalidGraphError, match="finite"):
        build(pts)


class TestSingleLinkage:
    def test_complete_graph_matches_scipy(self, rng):
        pts = rng.random((35, 2))
        res = single_linkage(pts)
        Zs = sch.linkage(ssd.pdist(pts), method="single")
        np.testing.assert_allclose(res.linkage_matrix()[:, 2], Zs[:, 2])

    @pytest.mark.parametrize("algorithm", ["sequf", "paruf", "rctt", "tree-contraction"])
    def test_algorithm_choice_equivalent(self, rng, algorithm):
        pts = rng.random((30, 2))
        base = single_linkage(pts, algorithm="brute")
        res = single_linkage(pts, algorithm=algorithm)
        np.testing.assert_array_equal(
            res.dendrogram.parents, base.dendrogram.parents
        )

    def test_blobs_recovered_by_cut(self):
        pts, true = gaussian_blobs(90, centers=3, spread=0.3, seed=0)
        res = single_linkage(pts)
        labels = res.labels_k(3)
        # same partition as ground truth
        ours = labels[:, None] == labels[None, :]
        gt = true[:, None] == true[None, :]
        np.testing.assert_array_equal(ours, gt)

    def test_rings_need_single_linkage(self):
        """Concentric rings: single linkage separates them where a radius
        cut around centroids could not."""
        pts, true = noisy_rings(160, rings=2, noise=0.03, seed=1)
        res = single_linkage(pts, k=6)
        labels = res.labels_k(2)
        ours = labels[:, None] == labels[None, :]
        gt = true[:, None] == true[None, :]
        np.testing.assert_array_equal(ours, gt)

    def test_labels_at_threshold(self, rng):
        pts = rng.random((20, 2))
        res = single_linkage(pts)
        big = res.labels_at(1e9)
        assert np.unique(big).size == 1

    def test_knn_pipeline_mst_weights_subset(self, rng):
        pts = rng.random((30, 2))
        res = single_linkage(pts, k=5)
        assert res.mst.n == 30
        assert res.mst.m == 29

    @pytest.mark.parametrize("mst_method", ["kruskal", "boruvka"])
    def test_mst_method_equivalent(self, rng, mst_method, monkeypatch):
        # Whichever algorithm the density threshold picks (forced here),
        # the pipeline's tree is Kruskal's.
        monkeypatch.setattr(mst, "KRUSKAL_DENSITY", 0 if mst_method == "kruskal" else 2**40)
        pts = rng.random((25, 2))
        a = single_linkage(pts)
        n, edges, weights = complete_graph(pts)
        np.testing.assert_allclose(
            np.sort(a.mst.weights), np.sort(weights[mst.kruskal_mst(n, edges, weights)])
        )


class TestHDBSCANLite:
    def test_recovers_blobs_with_explicit_cut(self):
        pts, true = gaussian_blobs(120, centers=3, spread=0.25, seed=3)
        # the three inter-blob MST links are far above intra-blob scale
        res = hdbscan_lite(pts, min_samples=4, min_cluster_size=10, cut_distance=1.2)
        assert res.n_clusters == 3
        assert (res.labels >= 0).sum() >= 100

    def test_auto_cut_separates_blobs(self):
        """The largest-gap auto cut must find at least the dominant split."""
        pts, _ = gaussian_blobs(120, centers=3, spread=0.25, seed=3)
        res = hdbscan_lite(pts, min_samples=4, min_cluster_size=10)
        assert res.n_clusters >= 2

    def test_core_distances_monotone_in_min_samples(self):
        pts, _ = gaussian_blobs(60, centers=2, seed=4)
        r1 = hdbscan_lite(pts, min_samples=2, min_cluster_size=5)
        r2 = hdbscan_lite(pts, min_samples=8, min_cluster_size=5)
        assert (r2.core_distances >= r1.core_distances - 1e-12).all()

    def test_explicit_cut_distance(self):
        pts, _ = gaussian_blobs(60, centers=2, spread=0.2, seed=5)
        res = hdbscan_lite(pts, min_samples=3, min_cluster_size=3, cut_distance=1e9)
        assert res.n_clusters == 1  # everything merges below the cut

    def test_small_clusters_become_noise(self):
        pts, _ = gaussian_blobs(40, centers=2, spread=0.2, seed=6)
        res = hdbscan_lite(pts, min_samples=3, min_cluster_size=30)
        assert res.n_clusters <= 1
        assert (res.labels == -1).any()

    def test_mutual_reachability_weights_dominate_distance(self):
        pts, _ = gaussian_blobs(50, centers=2, seed=7)
        res = hdbscan_lite(pts, min_samples=5, min_cluster_size=5)
        dm = pairwise_distances(pts)
        for e in range(res.mst.m):
            u, v = int(res.mst.edges[e, 0]), int(res.mst.edges[e, 1])
            assert res.mst.weights[e] >= dm[u, v] - 1e-12
            assert res.mst.weights[e] >= max(
                res.core_distances[u], res.core_distances[v]
            ) - 1e-12

    def test_bad_min_samples(self):
        with pytest.raises(InvalidGraphError, match="min_samples"):
            hdbscan_lite(np.zeros((5, 2)), min_samples=5)
