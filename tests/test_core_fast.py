"""Unit tests for the flat-array fast backends and the backend dispatch.

Equivalence across the full topology x weight-family x tracker grid lives
in ``test_backend_equivalence.py``; this file covers the degenerate inputs,
the window/drain/bail configuration knobs of ``sequf_fast`` (forcing every
internal mode: windowed rounds, scalar bail-out, small-input drain), and
the ``resolve_algorithm``/``single_linkage_dendrogram`` backend selection
rules including the error cases.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from conftest import make_tree
from repro.core.api import (
    ALGORITHMS,
    BACKENDS,
    resolve_algorithm,
    single_linkage_dendrogram,
)
from repro.core.fast import sequf_fast
from repro.core.fast_contraction import tree_contraction_fast
from repro.core.rctt import rctt
from repro.core.sequf import sequf
from repro.core.tree_contraction_sld import sld_tree_contraction
from repro.errors import AlgorithmError, InvalidTreeError
from repro.trees.generators import path_tree, random_tree
from repro.trees.wtree import WeightedTree


# ---------------------------------------------------------------------------
# Degenerate inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fn,opts",
    [
        (sequf_fast, {}),
        (rctt, {"seed": 0}),
        (tree_contraction_fast, {"seed": 0}),
    ],
    ids=["sequf-fast", "rctt", "tree-contraction-fast"],
)
def test_degenerate_inputs(fn, opts):
    one = WeightedTree(1, np.empty((0, 2), dtype=np.int64), np.empty(0))
    assert fn(one, **opts).shape == (0,)
    two = WeightedTree(2, np.array([[0, 1]], dtype=np.int64), np.array([1.0]))
    assert np.array_equal(fn(two, **opts), np.array([0]))


def test_sequf_fast_rejects_cycles():
    # Duplicate edge => not a tree; the windowed merge must notice instead
    # of looping or silently dropping the edge (construction validation
    # bypassed to reach the algorithm's own cycle check).
    edges = np.array([[0, 1], [0, 1], [1, 2], [2, 3]], dtype=np.int64)
    cyclic = WeightedTree(4, edges, np.array([1.0, 2.0, 3.0, 4.0]), validate=False)
    with pytest.raises(InvalidTreeError):
        sequf_fast(cyclic)


# ---------------------------------------------------------------------------
# sequf_fast internal modes
# ---------------------------------------------------------------------------


def _expected(tree):
    return sequf(tree)


@pytest.mark.parametrize(
    "config",
    [
        {"window": 8},  # many tiny windows: every round classification runs
        {"window": 8, "drain_below": 0},  # never drain early
        {"window": 4, "max_rounds": 1},  # drain immediately after one round
        {"window": 1_000_000},  # single window covering everything
        {"drain_below": 1_000_000},  # pure drain path, no windowed rounds
    ],
)
def test_sequf_fast_window_configs(config):
    for kind, n in (("random", 97), ("caterpillar", 64), ("star", 33)):
        tree = make_tree(kind, n)
        got = sequf_fast(tree, **config)
        assert np.array_equal(got, _expected(tree)), (kind, n, config)


def test_sequf_fast_monotone_weights_trigger_scalar_bailout():
    # A path with sorted weights makes every window a single rank-chain of
    # hard edges: round-1 progress stalls and the scalar mode must engage.
    n = 4096
    tree = path_tree(n).with_weights(np.arange(n - 1, dtype=np.float64))
    got = sequf_fast(tree, window=64)
    assert np.array_equal(got, _expected(tree))
    rev = path_tree(n).with_weights(np.arange(n - 1, 0, -1, dtype=np.float64))
    assert np.array_equal(sequf_fast(rev, window=64), _expected(rev))


def test_sequf_fast_wide_input_window_default():
    # Just above the wide-input threshold the default window widens; the
    # result must stay identical either way.
    from repro.core.fast import _WIDE_INPUT

    tree = random_tree(_WIDE_INPUT + 2, seed=3)
    assert np.array_equal(sequf_fast(tree), _expected(tree))


# ---------------------------------------------------------------------------
# tree_contraction_fast specifics
# ---------------------------------------------------------------------------


def test_tree_contraction_fast_seeds_change_nothing():
    tree = make_tree("random", 128, seed=5)
    expected = sld_tree_contraction(tree, mode="heap", seed=0)
    for seed in (0, 1, 7):
        ref = sld_tree_contraction(tree, mode="heap", seed=seed)
        assert np.array_equal(tree_contraction_fast(tree, seed=seed), ref)
        assert np.array_equal(ref, expected)  # SLD unique regardless of seed


# ---------------------------------------------------------------------------
# Backend dispatch
# ---------------------------------------------------------------------------


def test_backends_tuple_pinned():
    assert BACKENDS == ("auto", "reference", "array")


def test_resolve_algorithm_matrix():
    assert resolve_algorithm("sequf", "reference") is ALGORITHMS["sequf"]
    assert resolve_algorithm("sequf", "array") is sequf_fast
    assert resolve_algorithm("sequf", "auto") is sequf_fast
    assert resolve_algorithm("rctt", "array") is rctt  # array-native reference
    assert resolve_algorithm("tree-contraction", "array") is tree_contraction_fast
    from repro.core.fast_merge import sld_merge_fast

    assert resolve_algorithm("divide-conquer", "array") is sld_merge_fast
    # Twin-less algorithms: auto falls back, reference is itself.
    assert resolve_algorithm("brute", "auto") is ALGORITHMS["brute"]
    assert resolve_algorithm("brute", "reference") is ALGORITHMS["brute"]
    # A twin has no registry name of its own.
    with pytest.raises(AlgorithmError, match="unknown algorithm 'sequf-fast'"):
        resolve_algorithm("sequf-fast", "array")


def test_resolve_algorithm_errors():
    with pytest.raises(AlgorithmError, match="no array backend"):
        resolve_algorithm("brute", "array")
    with pytest.raises(AlgorithmError, match="unknown backend"):
        resolve_algorithm("sequf", "numpy")
    with pytest.raises(AlgorithmError, match="unknown algorithm"):
        resolve_algorithm("quicksort", "auto")


def test_fast_registry_consistent():
    """The registry holds reference algorithms only; the array backends
    hang off four of them and are reached through ``resolve_algorithm``.
    RCTT's reference is array-native, so its array backend is itself."""
    registered = set(ALGORITHMS.values())
    with_twin = set()
    for name, fn in ALGORITHMS.items():
        assert not name.endswith("-fast")
        assert resolve_algorithm(name, "reference") is fn
        try:
            twin = resolve_algorithm(name, "array")
        except AlgorithmError:
            assert resolve_algorithm(name, "auto") is fn
            continue
        if name == "rctt":
            assert twin is fn  # array-native: its own array backend
        else:
            assert twin not in registered
        assert resolve_algorithm(name, "auto") is twin
        with_twin.add(name)
    assert with_twin == {"sequf", "rctt", "tree-contraction", "divide-conquer"}


def test_single_linkage_dendrogram_backend_kwarg():
    tree = make_tree("broom", 40)
    ref = single_linkage_dendrogram(tree, algorithm="sequf", backend="reference")
    arr = single_linkage_dendrogram(tree, algorithm="sequf", backend="array")
    auto = single_linkage_dendrogram(tree, algorithm="sequf", validate=True)
    assert np.array_equal(ref.parents, arr.parents)
    assert np.array_equal(ref.parents, auto.parents)
    dc = single_linkage_dendrogram(tree, algorithm="divide-conquer", backend="array")
    assert np.array_equal(ref.parents, dc.parents)
    with pytest.raises(AlgorithmError):
        single_linkage_dendrogram(tree, algorithm="weight-dc", backend="array")


# The pipeline modules (``repro.cluster`` re-exports functions of the same names).
points_linkage = importlib.import_module("repro.cluster.single_linkage")
graph_linkage = importlib.import_module("repro.cluster.graph_linkage")


@pytest.mark.parametrize(
    "entry",
    [
        "single_linkage_dendrogram",
        "boruvka_mst",
        "minimum_spanning_tree",
        "single_linkage",
        "graph_single_linkage",
    ],
)
def test_unknown_backend_is_an_algorithm_error(entry, monkeypatch):
    """Every ``backend=`` entry point rejects an unknown backend with
    ``AlgorithmError``; the pipelines do so before any stage runs."""
    from repro.trees.boruvka import boruvka_mst
    from repro.trees.mst import minimum_spanning_tree

    def no_work(*args, **kwargs):
        raise AssertionError("a pipeline stage ran before the backend check")

    for module, stage in [
        (points_linkage, "knn_graph"),
        (points_linkage, "complete_graph"),
        (points_linkage, "minimum_spanning_tree"),
        (graph_linkage, "minimum_spanning_tree"),
    ]:
        monkeypatch.setattr(module, stage, no_work)
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
    weights = np.array([1.0, 2.0])
    calls = {
        "single_linkage_dendrogram": lambda backend: single_linkage_dendrogram(
            make_tree("path", 3), backend=backend
        ),
        "boruvka_mst": lambda backend: boruvka_mst(3, edges, weights, backend=backend),
        "minimum_spanning_tree": lambda backend: minimum_spanning_tree(
            3, edges, weights, backend=backend
        ),
        "single_linkage": lambda backend: points_linkage.single_linkage(
            np.zeros((3, 2)), k=1, backend=backend
        ),
        "graph_single_linkage": lambda backend: graph_linkage.graph_single_linkage(
            3, edges, weights, backend=backend
        ),
    }
    with pytest.raises(AlgorithmError, match="unknown backend 'numpy'"):
        calls[entry]("numpy")


def test_pipelines_check_the_twin_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("k-NN ran before the (algorithm, backend) check")

    monkeypatch.setattr(points_linkage, "knn_graph", no_work)
    with pytest.raises(AlgorithmError, match="no array backend"):
        points_linkage.single_linkage(np.zeros((3, 2)), k=1, algorithm="paruf", backend="array")
    monkeypatch.setattr(graph_linkage, "minimum_spanning_tree", no_work)
    with pytest.raises(AlgorithmError, match="unknown algorithm"):
        graph_linkage.graph_single_linkage(
            2, np.array([[0, 1]]), np.ones(1), algorithm="sequf-fast"
        )
