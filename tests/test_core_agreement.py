"""The load-bearing correctness property: every algorithm equals the oracle.

The brute-force oracle (:mod:`repro.core.brute`) computes each node's
parent straight from the single-linkage definition and shares no code with
the production algorithms, so elementwise agreement of the parent arrays
is a genuine end-to-end correctness check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    TREE_KINDS,
    algorithm_backends,
    arbitrary_weighted_trees,
    make_tree,
    weighted_trees,
)
from repro.core.brute import brute_force_sld
from repro.core.api import ALGORITHMS, resolve_algorithm, single_linkage_dendrogram
from repro.trees.weights import WEIGHT_SCHEMES, apply_scheme

#: Every (algorithm, backend) the registry dispatches, except the path-only
#: ``cartesian`` and the ``brute`` oracle itself.
GENERAL_ALGORITHMS = algorithm_backends(
    [name for name in ALGORITHMS if name not in ("cartesian", "brute")]
)


@pytest.mark.parametrize("algorithm,backend", GENERAL_ALGORITHMS)
@pytest.mark.parametrize("kind", sorted(TREE_KINDS))
@pytest.mark.parametrize("scheme", sorted(WEIGHT_SCHEMES))
def test_algorithm_matches_oracle_grid(algorithm, backend, kind, scheme):
    """Deterministic grid: every topology x weight scheme x algorithm."""
    tree = make_tree(kind, 23, seed=7).with_weights(apply_scheme(scheme, 22, seed=11))
    expected = brute_force_sld(tree)
    got = resolve_algorithm(algorithm, backend)(tree)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("algorithm,backend", GENERAL_ALGORITHMS)
@settings(max_examples=60, deadline=None)
@given(tree=weighted_trees(max_n=32))
def test_algorithm_matches_oracle_property(algorithm, backend, tree):
    """Property: random topology/weights, per algorithm."""
    got = resolve_algorithm(algorithm, backend)(tree)
    np.testing.assert_array_equal(got, brute_force_sld(tree))


@settings(max_examples=60, deadline=None)
@given(tree=arbitrary_weighted_trees())
def test_all_algorithms_agree_on_tied_weights(tree):
    """Ties broken by edge id: all algorithms must still agree exactly."""
    expected = brute_force_sld(tree)
    for param in GENERAL_ALGORITHMS:
        got = resolve_algorithm(*param.values)(tree)
        np.testing.assert_array_equal(got, expected, err_msg=param.id)


@pytest.mark.parametrize("algorithm,backend", GENERAL_ALGORITHMS)
def test_two_vertex_tree(algorithm, backend):
    tree = make_tree("path", 2)
    parents = resolve_algorithm(algorithm, backend)(tree)
    np.testing.assert_array_equal(parents, [0])


@pytest.mark.parametrize(
    "algorithm,backend", GENERAL_ALGORITHMS + algorithm_backends(["cartesian", "brute"])
)
def test_single_vertex_tree(algorithm, backend):
    tree = make_tree("path", 1)
    parents = resolve_algorithm(algorithm, backend)(tree)
    assert parents.shape == (0,)


@pytest.mark.parametrize("algorithm,backend", GENERAL_ALGORITHMS)
def test_three_vertex_trees_exhaustive(algorithm, backend):
    """All weight orders on both 3-vertex topologies (path only; the star on
    3 vertices is the same graph relabeled)."""
    import itertools

    from repro.trees.wtree import WeightedTree

    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
    for w in itertools.permutations([1.0, 2.0]):
        tree = WeightedTree(3, edges, np.array(w))
        np.testing.assert_array_equal(
            resolve_algorithm(algorithm, backend)(tree), brute_force_sld(tree)
        )


RACE_CHECKED = ("paruf-sync", "rctt")


@pytest.mark.parametrize("algorithm", RACE_CHECKED)
@pytest.mark.parametrize("kind", sorted(TREE_KINDS))
def test_race_checked_algorithms_match_oracle(algorithm, kind):
    """The round-race detector stays silent on the real algorithms AND the
    results still equal the oracle -- the machine check of the Lemma 4.1
    round-independence argument."""
    from repro.core.paruf_sync import paruf_sync
    from repro.core.rctt import rctt

    tree = make_tree(kind, 23, seed=7).with_weights(apply_scheme("perm", 22, seed=11))
    expected = brute_force_sld(tree)
    if algorithm == "paruf-sync":
        got = paruf_sync(tree, race_check=True, shuffle=True, seed=3)
    else:
        got = rctt(tree, seed=3, race_check=True)
    np.testing.assert_array_equal(got, expected)


def test_api_returns_validated_dendrogram():
    tree = make_tree("knuth", 30, seed=3).with_weights(apply_scheme("perm", 29, seed=4))
    dend = single_linkage_dendrogram(tree, algorithm="rctt", validate=True)
    assert dend.m == 29
    assert dend.tree is tree
    dend.validate()  # idempotent


def test_api_rejects_unknown_algorithm():
    from repro.errors import AlgorithmError

    tree = make_tree("path", 5)
    with pytest.raises(AlgorithmError, match="unknown algorithm"):
        single_linkage_dendrogram(tree, algorithm="fastest")


def test_algorithms_registry_is_complete():
    assert set(ALGORITHMS) == {
        "sequf",
        "paruf",
        "paruf-sync",
        "rctt",
        "tree-contraction",
        "tree-contraction-list",
        "divide-conquer",
        "weight-dc",
        "cartesian",
        "brute",
    }
