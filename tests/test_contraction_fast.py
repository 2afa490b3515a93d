"""The vectorized contraction builder: schedule-identical to the reference.

``build_rc_tree_fast`` re-derives adjacency from algebraic incidence
accumulators instead of dict adjacency; these tests pin it to the
reference builder array-for-array (same rake/compress decisions, same
rounds) and validate the accumulator arithmetic edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tree, weighted_trees
from repro.contraction.fast import build_rc_tree_fast
from repro.contraction.schedule import build_rc_tree
from repro.trees.weights import apply_scheme


@settings(max_examples=60, deadline=None)
@given(tree=weighted_trees(max_n=48), seed=st.integers(0, 2**31 - 1))
def test_identical_to_reference(tree, seed):
    ref = build_rc_tree(tree, seed=seed)
    fast = build_rc_tree_fast(tree, seed=seed)
    assert ref.root == fast.root
    np.testing.assert_array_equal(ref.parent, fast.parent)
    np.testing.assert_array_equal(ref.edge, fast.edge)
    np.testing.assert_array_equal(ref.round_of, fast.round_of)
    np.testing.assert_array_equal(ref.kind, fast.kind)
    assert [kind for kind, _ in fast.rounds] == [kind for kind, _ in ref.rounds]


@settings(max_examples=30, deadline=None)
@given(tree=weighted_trees(max_n=40), seed=st.integers(0, 2**31 - 1))
def test_recorded_events_replay_legally(tree, seed):
    # Only the reference builder records events; test_identical_to_reference
    # pins the fast builder's arrays (and so its schedule) to them.
    build_rc_tree(tree, seed=seed).validate(tree)


@settings(max_examples=30, deadline=None)
@given(tree=weighted_trees(max_n=40))
def test_id_priorities_match_reference(tree):
    ref = build_rc_tree(tree, priorities="id")
    fast = build_rc_tree_fast(tree, priorities="id")
    np.testing.assert_array_equal(ref.parent, fast.parent)
    np.testing.assert_array_equal(ref.edge, fast.edge)


def test_neighbor_recovery_extremes():
    """Degree-2 recovery (the sum/square-sum arithmetic) must stay exact on
    a large id space with maximal spreads: a 100k path under a random
    vertex relabeling puts extreme-id vertices adjacent to each other."""
    from repro.trees.wtree import WeightedTree

    n = 100_001
    rng = np.random.default_rng(7)
    perm = rng.permutation(n)
    base = make_tree("path", n)
    tree = WeightedTree(
        n, perm[base.edges], apply_scheme("perm", n - 1, seed=8), validate=False
    )
    ref = build_rc_tree(tree, seed=0)
    fast = build_rc_tree_fast(tree, seed=0)
    np.testing.assert_array_equal(ref.parent, fast.parent)
    np.testing.assert_array_equal(ref.edge, fast.edge)


def test_unknown_priority_rule():
    with pytest.raises(ValueError, match="priority rule"):
        build_rc_tree_fast(make_tree("path", 4), priorities="degree")


def test_single_vertex():
    rct = build_rc_tree_fast(make_tree("path", 1))
    assert rct.root == 0
    assert rct.num_rounds == 0


def test_rctt_builders_agree():
    from repro.core.rctt import rctt

    tree = make_tree("random", 500, seed=9).with_weights(apply_scheme("uniform", 499, seed=10))
    np.testing.assert_array_equal(
        rctt(tree, seed=4, builder="fast"), rctt(tree, seed=4, builder="reference")
    )


def test_rctt_unknown_builder():
    from repro.core.rctt import rctt

    with pytest.raises(ValueError, match="builder"):
        rctt(make_tree("path", 4), builder="gpu")
