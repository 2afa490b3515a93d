"""ParUF-specific behaviour: schedules, heaps, post-processing, stats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tree, weighted_trees
from repro.core.brute import brute_force_sld
from repro.core.paruf import ParUFStats, paruf
from repro.errors import AlgorithmError
from repro.runtime.cost_model import CostTracker
from repro.runtime.instrumentation import recording
from repro.trees.weights import apply_scheme


@settings(max_examples=40, deadline=None)
@given(
    tree=weighted_trees(max_n=28),
    order=st.sampled_from(["fifo", "lifo", "random"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_schedule_insensitivity(tree, order, seed):
    """Any linearization of the asynchronous execution yields the same SLD
    (the paper's race-freedom argument, Theorem 4.3)."""
    expected = brute_force_sld(tree)
    got = paruf(tree, order=order, seed=seed)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("heap_kind", ["pairing", "binomial", "skew"])
@settings(max_examples=25, deadline=None)
@given(tree=weighted_trees(max_n=24))
def test_heap_kind_equivalence(heap_kind, tree):
    np.testing.assert_array_equal(
        paruf(tree, heap_kind=heap_kind), brute_force_sld(tree)
    )


def test_unknown_order_rejected():
    tree = make_tree("path", 5)
    with pytest.raises(AlgorithmError, match="worklist order"):
        paruf(tree, order="sorted")


def test_unknown_heap_rejected():
    tree = make_tree("path", 5)
    with pytest.raises(ValueError, match="heap kind"):
        paruf(tree, heap_kind="fibonacci")


def test_postprocess_fires_on_sorted_path():
    """Unit/sorted weights on a path: exactly one initial local minimum, so
    the optimization sorts everything immediately."""
    tree = make_tree("path", 50).with_weights(apply_scheme("sorted", 49))
    stats = ParUFStats()
    parents = paruf(tree, stats=stats)
    assert stats.used_postprocess
    assert stats.initial_ready == 1
    assert stats.processed_async == 0
    assert stats.postprocessed == 49
    np.testing.assert_array_equal(parents, brute_force_sld(tree))


def test_postprocess_starved_on_low_par():
    """The paper's adversarial input: two ready edges at all times, so the
    optimization cannot fire until the very end and chains run Theta(n)
    deep (the Table 1 pathology)."""
    n = 200
    tree = make_tree("path", n).with_weights(apply_scheme("low-par", n - 1))
    stats = ParUFStats()
    parents = paruf(tree, stats=stats)
    np.testing.assert_array_equal(parents, brute_force_sld(tree))
    assert stats.initial_ready == 2
    assert stats.processed_async >= (n - 1) - 3  # nearly everything async
    assert stats.max_round >= (n - 1) // 2 - 2  # Theta(n) activation depth


def test_postprocess_disabled_still_correct():
    tree = make_tree("knuth", 60, seed=5).with_weights(apply_scheme("perm", 59, seed=6))
    stats = ParUFStats()
    parents = paruf(tree, postprocess=False, stats=stats)
    assert not stats.used_postprocess
    assert stats.processed_async == 59
    np.testing.assert_array_equal(parents, brute_force_sld(tree))


def test_perm_path_has_high_initial_parallelism():
    """Random weights on a path leave ~1/3 of edges as local minima."""
    n = 3000
    tree = make_tree("path", n).with_weights(apply_scheme("perm", n - 1, seed=0))
    stats = ParUFStats()
    paruf(tree, stats=stats)
    assert stats.initial_ready > (n - 1) / 5


def test_max_round_bounded_by_height():
    """Activation rounds never exceed the dendrogram height (Theorem 4.3's
    O(h log n) depth argument)."""
    from repro.dendrogram.metrics import dendrogram_height

    tree = make_tree("knuth", 300, seed=8).with_weights(apply_scheme("perm", 299, seed=9))
    stats = ParUFStats()
    parents = paruf(tree, postprocess=False, stats=stats)
    h = dendrogram_height(parents, tree.ranks)
    assert stats.max_round <= h


def test_tracker_and_timer_populated():
    tree = make_tree("knuth", 80, seed=1).with_weights(apply_scheme("perm", 79, seed=2))
    tracker = CostTracker()
    with recording(tracker) as rec:
        paruf(tree, tracker=tracker)
    assert tracker.work > 0
    assert tracker.depth > 0
    assert set(rec.phases) == {"preprocess", "async", "postprocess"}
    # Work must be superlinear-ish but far below n^2
    assert tracker.work < 80 * 80 * 10


def test_stats_heap_kind_recorded():
    tree = make_tree("path", 10)
    stats = ParUFStats()
    paruf(tree, heap_kind="skew", stats=stats)
    assert stats.heap_kind == "skew"


def test_empty_and_singleton():
    assert paruf(make_tree("path", 1)).shape == (0,)
    np.testing.assert_array_equal(paruf(make_tree("path", 2)), [0])
