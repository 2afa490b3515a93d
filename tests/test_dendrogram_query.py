"""QueryEngine, vectorized DendrogramIndex batches, and the line protocol."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_tree
from repro.core.api import single_linkage_dendrogram
from repro.dendrogram.cophenet import cophenetic_distance
from repro.dendrogram.lca import DendrogramIndex, batched_lca, lifting_table
from repro.dendrogram.linkage import canonical_labels, cut_height, cut_k, leaf_parents
from repro.dendrogram.query import QueryEngine
from repro.dendrogram.service import execute_batch, parse_query, serve_lines
from repro.dendrogram.snapshot import build_snapshot
from repro.fuzz.generators import TOPOLOGY_FAMILIES, _make_topology
from repro.trees.wtree import WeightedTree


def _dend(kind: str = "random", n: int = 64, seed: int = 0):
    tree = make_tree(kind, n, seed=seed)
    return single_linkage_dendrogram(tree, algorithm="sequf")


def _spine_dend(m: int):
    """A path with ascending weights: the dendrogram is one spine of
    depth exactly ``m`` -- the binary-lifting level-count boundary."""
    edges = np.stack(
        [np.arange(m, dtype=np.int64), np.arange(1, m + 1, dtype=np.int64)], axis=1
    )
    tree = WeightedTree(m + 1, edges, np.arange(1.0, m + 1.0))
    return single_linkage_dendrogram(tree, algorithm="sequf")


class TestIndexEdgeCases:
    def test_empty_dendrogram(self):
        idx = DendrogramIndex(_dend(kind="path", n=1))
        out = idx.merge_heights(np.zeros((0, 2), dtype=np.int64))
        assert out.shape == (0,)
        engine = QueryEngine.from_dendrogram(_dend(kind="path", n=1))
        assert engine.merge_heights(np.zeros((0, 2), dtype=np.int64)).shape == (0,)
        assert engine.cut_at(0.0).tolist() == [0]
        assert engine.cut_k(1).tolist() == [0]
        assert engine.cluster_of(np.array([0]), 0.0).tolist() == [0]

    def test_single_edge(self):
        dend = _dend(kind="path", n=2)
        idx = DendrogramIndex(dend)
        w = float(dend.tree.weights[0])
        got = idx.merge_heights(np.array([[0, 1], [1, 0], [0, 0]]))
        assert got.tolist() == [w, w, 0.0]

    @pytest.mark.parametrize("kind", ["star", "path"])
    def test_star_and_path_match_scalar(self, kind):
        dend = _dend(kind=kind, n=33, seed=5)
        idx = DendrogramIndex(dend)
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 33, size=(200, 2))
        got = idx.merge_heights(pairs)
        want = [idx.merge_height(int(u), int(v)) for u, v in pairs.tolist()]
        assert got.tolist() == want

    @pytest.mark.parametrize("m", [15, 16, 17])
    def test_maximal_depth_spine_at_levels_boundary(self, m):
        """depth.max() straddling a power of two exercises the level-count
        edge in ``lifting_table`` (levels = ceil(log2(max depth)) + 1)."""
        dend = _spine_dend(m)
        idx = DendrogramIndex(dend)
        assert int(idx._depth.max()) == m
        n = m + 1
        iu, ju = np.triu_indices(n, k=1)
        pairs = np.stack([iu, ju], axis=1)
        got = idx.merge_heights(pairs)
        want = [idx.merge_height(int(u), int(v)) for u, v in pairs.tolist()]
        assert got.tolist() == want
        # On the ascending path, u and v merge at the deeper endpoint's edge.
        expected = np.maximum(iu, ju).astype(np.float64)
        assert got.tolist() == expected.tolist()

    def test_bad_pairs_rejected(self):
        idx = DendrogramIndex(_dend(n=8))
        engine = QueryEngine.from_dendrogram(_dend(n=8))
        for target in (idx, engine):
            with pytest.raises(ValueError, match="shape"):
                target.merge_heights(np.zeros(4, dtype=np.int64))
            with pytest.raises(ValueError, match="lie in"):
                target.merge_heights(np.array([[0, 8]]))
            with pytest.raises(ValueError, match="lie in"):
                target.merge_heights(np.array([[-1, 0]]))


class TestBatchedOracle:
    @pytest.mark.parametrize("family", TOPOLOGY_FAMILIES)
    def test_merge_heights_bit_identical_to_scalar(self, family):
        """The vectorized lift takes exactly the scalar walk's jumps."""
        tree = _make_topology(family, 48, np.random.default_rng(11))
        dend = single_linkage_dendrogram(tree, algorithm="sequf")
        idx = DendrogramIndex(dend)
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, 48, size=(300, 2))
        got = idx.merge_heights(pairs)
        want = [idx.merge_height(int(u), int(v)) for u, v in pairs.tolist()]
        assert got.tolist() == want

    @pytest.mark.parametrize("family", TOPOLOGY_FAMILIES)
    def test_differential_vs_cophenetic_distance(self, family):
        tree = _make_topology(family, 32, np.random.default_rng(13))
        dend = single_linkage_dendrogram(tree, algorithm="sequf")
        engine = QueryEngine.from_dendrogram(dend)
        rng = np.random.default_rng(13)
        pairs = rng.integers(0, 32, size=(150, 2))
        got = engine.merge_heights(pairs)
        want = [cophenetic_distance(dend, int(u), int(v)) for u, v in pairs.tolist()]
        assert got.tolist() == want

    def test_lifting_table_matches_repeated_parents(self):
        dend = _dend(n=40, seed=2)
        idx = DendrogramIndex(dend)
        up = lifting_table(dend.parents, idx._depth)
        walk = dend.parents.copy()
        for k in range(1, up.shape[0]):
            walk = walk[walk]  # doubles the hop count each level
            np.testing.assert_array_equal(up[k], walk)

    def test_batched_lca_self_pairs(self):
        dend = _spine_dend(8)
        idx = DendrogramIndex(dend)
        nodes = np.arange(8, dtype=np.int64)
        out = batched_lca(idx._up, idx._depth, nodes, nodes)
        assert out.tolist() == nodes.tolist()


class TestQueryEngineCuts:
    @pytest.mark.parametrize("family", TOPOLOGY_FAMILIES)
    def test_cut_at_matches_cut_height(self, family):
        tree = _make_topology(family, 40, np.random.default_rng(17))
        dend = single_linkage_dendrogram(tree, algorithm="sequf")
        engine = QueryEngine.from_dendrogram(dend)
        for t in np.quantile(tree.weights, [0.0, 0.2, 0.5, 0.8, 1.0]):
            np.testing.assert_array_equal(
                engine.cut_at(float(t)), cut_height(tree, float(t))
            )

    @pytest.mark.parametrize("family", TOPOLOGY_FAMILIES)
    def test_cut_k_matches_linkage(self, family):
        tree = _make_topology(family, 40, np.random.default_rng(19))
        dend = single_linkage_dendrogram(tree, algorithm="sequf")
        engine = QueryEngine.from_dendrogram(dend)
        for k in (1, 2, 7, 20, 40):
            np.testing.assert_array_equal(engine.cut_k(k), cut_k(tree, k))
        with pytest.raises(ValueError, match="cluster count"):
            engine.cut_k(0)
        with pytest.raises(ValueError, match="cluster count"):
            engine.cut_k(41)

    def test_cluster_of_agrees_with_cut_at(self):
        dend = _dend(n=50, seed=23)
        engine = QueryEngine.from_dendrogram(dend)
        for t in np.quantile(dend.tree.weights, [0.1, 0.6, 0.9]):
            keys = engine.cluster_of(np.arange(50), float(t))
            np.testing.assert_array_equal(
                canonical_labels(keys), engine.cut_at(float(t))
            )

    def test_cluster_of_keys_are_stable_and_sparse(self):
        """Point queries return the same key with or without the full sweep."""
        dend = _dend(n=50, seed=29)
        engine = QueryEngine.from_dendrogram(dend)
        t = float(np.median(dend.tree.weights))
        subset = np.array([3, 7, 3, 49])
        np.testing.assert_array_equal(
            engine.cluster_of(subset, t), engine.cluster_of(np.arange(50), t)[subset]
        )
        with pytest.raises(ValueError, match="1-D"):
            engine.cluster_of(subset.reshape(2, 2), t)
        with pytest.raises(ValueError, match="lie in"):
            engine.cluster_of(np.array([50]), t)

    @pytest.mark.parametrize(
        "tree",
        [
            pytest.param(make_tree("path", 1), id="n1"),
            pytest.param(make_tree("path", 2).with_weights(np.array([2.0])), id="n2"),
            pytest.param(_spine_dend(40).tree, id="deep-path"),
            pytest.param(
                make_tree("star", 30).with_weights(np.repeat([1.0, 2.0, 3.0], [9, 10, 10])),
                id="star-ties",
            ),
            pytest.param(
                make_tree("random", 60, seed=4).with_weights(
                    np.random.default_rng(4).integers(0, 6, size=59).astype(np.float64)
                ),
                id="random-ties",
            ),
            pytest.param(
                make_tree("caterpillar", 45).with_weights(np.ones(44)), id="caterpillar-all-tied"
            ),
        ],
    )
    def test_cluster_of_keys_match_the_climbing_oracle(self, tree):
        """Each key is the highest node above the vertex's leaf whose weight
        is <= t -- found here by climbing the parent array one hop at a time
        -- or ``m + v`` while the vertex is a singleton."""
        dend = single_linkage_dendrogram(tree, algorithm="sequf")
        engine = QueryEngine.from_dendrogram(dend)
        m, w = tree.m, tree.weights
        attach = leaf_parents(tree)

        def key(v: int, t: float) -> int:
            a = int(attach[v])
            if m == 0 or w[a] > t:
                return m + v
            while dend.parents[a] != a and w[dend.parents[a]] <= t:
                a = int(dend.parents[a])
            return a

        levels = np.unique(w) if m else np.zeros(1)
        for t in np.unique(np.concatenate([levels - 0.5, levels, levels + 0.5])):
            want = [key(v, float(t)) for v in range(tree.n)]
            assert engine.cluster_of(np.arange(tree.n), float(t)).tolist() == want, t

    def test_lru_cache_eviction_and_reuse(self):
        engine = QueryEngine.from_dendrogram(_dend(n=30), cut_cache_size=2)
        a = engine.cut_at(0.25)
        assert not a.flags.writeable  # cached results are frozen
        assert engine.cut_at(0.25) is a  # hit
        engine.cut_at(0.5)
        a2 = engine.cut_at(0.25)  # refresh recency
        assert a2 is a
        engine.cut_k(3)  # evicts 0.5, the least recent
        assert engine.cached_cuts == 2
        assert engine.cut_at(0.25) is a

    def test_cache_disabled(self):
        engine = QueryEngine.from_dendrogram(_dend(n=30), cut_cache_size=0)
        first = engine.cut_at(0.25)
        assert engine.cut_at(0.25) is not first
        assert engine.cached_cuts == 0
        assert first.flags.writeable  # uncached results stay plain arrays

    def test_engine_over_built_snapshot(self):
        dend = _dend(n=30, seed=31)
        via_snapshot = QueryEngine(build_snapshot(dend))
        via_dend = QueryEngine.from_dendrogram(dend)
        pairs = np.random.default_rng(31).integers(0, 30, size=(64, 2))
        np.testing.assert_array_equal(
            via_snapshot.merge_heights(pairs), via_dend.merge_heights(pairs)
        )


class TestLineProtocol:
    @pytest.fixture()
    def engine(self):
        return QueryEngine.from_dendrogram(_dend(n=20, seed=37))

    def test_parse(self):
        assert parse_query("") is None
        assert parse_query("  # comment") is None
        assert parse_query("cut 0.5").op == "cut"
        assert parse_query("k 3").args == (3,)
        assert parse_query("cluster 0.5 1 2").args == (0.5, 1, 2)
        assert parse_query("height 1 2  # trailing comment").args == (1, 2)
        for bad in ("cut", "cut a", "k 1 2", "cluster 0.5", "height 1", "frob 1"):
            with pytest.raises(ValueError):
                parse_query(bad)

    def test_batch_order_and_vectorized_heights(self, engine):
        dend = _dend(n=20, seed=37)
        lines = [
            "height 0 5",
            "cut 0.5",
            "# interleaved comment",
            "height 3 3",
            "k 4",
            "cluster 0.5 0 1",
            "height 7 2",
        ]
        out = execute_batch(engine, lines)
        assert len(out) == 6
        assert float(out[0]) == cophenetic_distance(dend, 0, 5)
        assert out[1] == " ".join(str(x) for x in cut_height(dend.tree, 0.5).tolist())
        assert out[2] == "0.0"
        assert out[3] == " ".join(str(x) for x in cut_k(dend.tree, 4).tolist())
        assert float(out[5]) == cophenetic_distance(dend, 7, 2)

    def test_batch_reports_line_numbers(self, engine):
        with pytest.raises(ValueError, match="line 2"):
            execute_batch(engine, ["height 0 1", "frob"])

    def test_serve_lines_recovers_from_errors(self, engine):
        responses = list(serve_lines(engine, ["height 0 1", "frob", "k 2"]))
        assert len(responses) == 3
        assert responses[1].startswith("error:")
        with pytest.raises(ValueError):
            list(serve_lines(engine, ["frob"], stop_on_error=True))
