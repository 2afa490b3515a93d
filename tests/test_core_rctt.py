"""RCTT-specific behaviour: phases, determinism, contraction coupling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tree, weighted_trees
from repro.bench.inputs import SYNTHETIC_FAMILIES, make_input
from repro.contraction.fast import build_rc_tree_fast
from repro.contraction.schedule import build_rc_tree
from repro.core.brute import brute_force_sld
from repro.core.rctt import rctt
from repro.runtime.cost_model import CostTracker
from repro.runtime.instrumentation import recording
from repro.trees.weights import apply_scheme


@settings(max_examples=40, deadline=None)
@given(tree=weighted_trees(max_n=30), seed=st.integers(0, 2**31 - 1))
def test_correct_for_any_contraction_seed(tree, seed):
    """Correctness must not depend on the randomized contraction schedule."""
    np.testing.assert_array_equal(rctt(tree, seed=seed), brute_force_sld(tree))


def test_deterministic_given_seed():
    tree = make_tree("knuth", 120, seed=4).with_weights(apply_scheme("perm", 119, seed=5))
    a = rctt(tree, seed=7)
    b = rctt(tree, seed=7)
    np.testing.assert_array_equal(a, b)


def test_phases_recorded():
    tree = make_tree("knuth", 100, seed=2).with_weights(apply_scheme("perm", 99, seed=3))
    tracker = CostTracker()
    with recording(tracker) as rec:
        rctt(tree, tracker=tracker)
    assert set(rec.phases) == {"build", "trace", "sort"}
    costs = rec.phase_costs
    assert costs["build"].work > 0
    assert costs["trace"].work > 0


def test_trace_steps_bounded_by_rc_height():
    """No trace may climb further than the RC-tree height (Section 4.2's
    O(n log n) trace work bound)."""
    tree = make_tree("path", 500).with_weights(apply_scheme("perm", 499, seed=1))
    rct = build_rc_tree(tree, seed=0)
    height = rct.height()
    ranks = tree.ranks
    voe = rct.vertex_of_edge()
    for e in range(tree.m):
        u = int(rct.parent[int(voe[e])])
        steps = 1
        while u != rct.root and ranks[rct.edge[u]] < ranks[e]:
            u = int(rct.parent[u])
            steps += 1
        assert steps <= height + 1


def test_buckets_partition_edges():
    """Every edge lands in exactly one bucket (implicit in Alg. 6): the
    output parent array must touch every edge exactly once, which the
    oracle comparison plus structural validation already ensure -- here we
    re-check via the parent array root-reachability."""
    from repro.dendrogram.validate import validate_parents

    tree = make_tree("random", 200, seed=9).with_weights(apply_scheme("uniform", 199, seed=10))
    parents = rctt(tree)
    validate_parents(parents, tree.ranks)


def test_star_input_single_bucket():
    """On a star, contraction rakes all leaves into the center; the whole
    dendrogram is one sorted chain."""
    tree = make_tree("star", 64).with_weights(apply_scheme("perm", 63, seed=2))
    parents = rctt(tree)
    order = np.argsort(tree.ranks)
    for a, b in zip(order, order[1:]):
        assert parents[a] == b
    assert parents[order[-1]] == order[-1]


def _scalar_climbs(tree, seed):
    """Per-edge climb lengths, one scalar walk per edge: from the rcnode
    associated with edge ``e``, the hops past its rc-parent while the
    reached rcnode is not the root and its edge ranks below ``e``."""
    rct = build_rc_tree_fast(tree, seed=seed)
    ranks = tree.ranks
    climbs = []
    for v in range(rct.n):
        e = int(rct.edge[v])
        if e < 0:
            continue  # the root carries no edge
        u = int(rct.parent[v])
        climb = 0
        while u != rct.root and ranks[int(rct.edge[u])] < ranks[e]:
            u = int(rct.parent[u])
            climb += 1
        climbs.append(climb)
    return climbs


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", SYNTHETIC_FAMILIES)
def test_trace_charges_match_scalar_climbs(family, seed):
    """The trace phase charges m + the summed climb lengths as work, and
    1 + the longest climb + ceil(log2 m) as depth."""
    tree = make_input(family, 1000, seed=seed)
    climbs = _scalar_climbs(tree, seed)
    assert len(climbs) == tree.m
    tracker = CostTracker()
    with recording(tracker) as rec:
        rctt(tree, seed=seed, tracker=tracker)
    trace = rec.phase_costs["trace"]
    assert trace.work == tree.m + sum(climbs)
    assert trace.depth == 1 + max(climbs) + math.ceil(math.log2(tree.m))
