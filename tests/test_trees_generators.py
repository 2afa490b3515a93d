"""Tree generators: shape properties of every family."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.generators import (
    balanced_binary,
    broom,
    caterpillar,
    knuth_tree,
    make_tree,
    path_tree,
    random_tree,
    star_of_stars,
    star_tree,
)
from repro.trees.validation import validate_tree_edges
from repro.trees.weights import apply_scheme


@pytest.mark.parametrize(
    "maker",
    [path_tree, star_tree, lambda n: knuth_tree(n, seed=0), lambda n: random_tree(n, seed=0),
     balanced_binary, caterpillar, broom],
    ids=["path", "star", "knuth", "random", "binary", "caterpillar", "broom"],
)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 25])
def test_generators_build_valid_trees(maker, n):
    tree = maker(n)
    assert tree.n == n
    assert tree.m == n - 1
    validate_tree_edges(tree.n, tree.edges)


def test_path_degrees():
    d = path_tree(6).degrees()
    assert sorted(d.tolist()) == [1, 1, 2, 2, 2, 2]


def test_star_center_degree():
    t = star_tree(10, center=3)
    assert t.degrees()[3] == 9
    assert (np.delete(t.degrees(), 3) == 1).all()


def test_star_bad_center():
    with pytest.raises(ValueError, match="center"):
        star_tree(5, center=5)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**31 - 1))
def test_knuth_attachment_property(n, seed):
    """Vertex i's other endpoint must be a strictly smaller vertex id."""
    t = knuth_tree(n, seed=seed)
    validate_tree_edges(t.n, t.edges)
    for p, c in t.edges:
        assert p < c


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**31 - 1))
def test_random_tree_valid(n, seed):
    t = random_tree(n, seed=seed)
    validate_tree_edges(t.n, t.edges)


def test_random_tree_varies_with_seed():
    a = random_tree(30, seed=1)
    b = random_tree(30, seed=2)
    assert not np.array_equal(a.edges, b.edges)


def test_balanced_binary_depth():
    t = balanced_binary(15)
    # vertex 14's ancestry: 14 -> 6 -> 2 -> 0, i.e. depth 3 = log2(15+1) - 1
    d = t.degrees()
    assert d[0] == 2
    assert d.max() == 3


def test_caterpillar_structure():
    t = caterpillar(10, spine=4)
    d = t.degrees()
    assert (d[4:] == 1).all()  # legs
    assert d[:4].sum() == 2 * 9 - 6  # spine carries the rest


def test_caterpillar_bad_spine():
    with pytest.raises(ValueError, match="spine"):
        caterpillar(5, spine=6)


def test_broom_structure():
    t = broom(10, handle=4)
    d = t.degrees()
    assert d[4] == 1 + (10 - 5)  # joint vertex: handle + brush
    assert (d[5:] == 1).all()


def test_broom_bad_handle():
    with pytest.raises(ValueError, match="handle"):
        broom(5, handle=5)


class TestStarOfStars:
    def test_structure(self):
        tree, weights = star_of_stars(40, 8, seed=0)
        assert tree.n == 40
        validate_tree_edges(tree.n, tree.edges)
        # 5 stars of 8: four path edges among centers with the top weights
        ranks = tree.ranks
        path_edges = np.flatnonzero(weights >= 8.0)
        assert path_edges.size == 4
        assert set(ranks[path_edges].tolist()) == {35, 36, 37, 38}

    def test_trims_to_whole_stars(self):
        tree, _ = star_of_stars(43, 8, seed=0)
        assert tree.n == 40

    def test_each_star_sorts_independently(self):
        """Within each star, the SLD chains the star's edges by rank --
        the sorting-instance structure of the Appendix B lower bound."""
        from repro.core.brute import brute_force_sld

        tree, weights = star_of_stars(24, 6, seed=1)
        parents = brute_force_sld(tree)
        star_edge_ids = np.flatnonzero(weights < 6.0)
        by_center: dict[int, list[int]] = {}
        for e in star_edge_ids:
            c = int(min(tree.edges[e]))
            by_center.setdefault(c, []).append(int(e))
        ranks = tree.ranks
        for c, eids in by_center.items():
            eids.sort(key=lambda e: ranks[e])
            for a, b in zip(eids, eids[1:]):
                assert parents[a] == b, f"star at {c}"

    def test_bad_params(self):
        with pytest.raises(ValueError, match="h must be"):
            star_of_stars(10, 1)
        with pytest.raises(ValueError, match="n >= h"):
            star_of_stars(4, 8)


@pytest.mark.parametrize(
    "maker",
    [path_tree, star_tree, balanced_binary, caterpillar, broom],
    ids=["path", "star", "binary", "caterpillar", "broom"],
)
def test_zero_vertices_rejected(maker):
    with pytest.raises(ValueError):
        maker(0)


@pytest.mark.parametrize(
    "kind", ["path", "star", "knuth", "random", "binary", "caterpillar", "broom"]
)
def test_make_tree_weights_one_topology_with_seed_plus_one(kind):
    topology = {
        "path": path_tree(40),
        "star": star_tree(40),
        "knuth": knuth_tree(40, seed=3),
        "random": random_tree(40, seed=3),
        "binary": balanced_binary(40),
        "caterpillar": caterpillar(40),
        "broom": broom(40),
    }[kind]
    tree = make_tree(kind, 40, "perm", seed=3)
    assert np.array_equal(tree.edges, topology.edges)
    assert np.array_equal(tree.weights, apply_scheme("perm", 39, seed=4))


def test_make_tree_unknown_kind():
    with pytest.raises(ValueError, match="unknown tree kind"):
        make_tree("torus", 10)
