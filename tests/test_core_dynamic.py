"""Dynamic SLD: exactness under updates and suffix-recompute locality."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import TREE_KINDS, make_tree, weighted_trees
from repro.core.brute import brute_force_sld
from repro.core.dynamic import DynamicSLD
from repro.core.weight_dc import _solve_base
from repro.errors import InvalidWeightsError
from repro.fuzz.generators import WEIGHT_FAMILIES
from repro.trees.weights import ranks_of


def glue_scan_reference(
    high: list[int],
    scratch: np.ndarray,
    pending: dict[int, int],
    parents: np.ndarray,
) -> None:
    """The pre-vectorization glue step, kept as the differential oracle.

    Scans the high edges in rank order and attaches each pending low
    component root to the first high edge incident to its supervertex
    (Lemma 4.2).  The production path in
    :meth:`DynamicSLD._recompute_suffix` computes the same assignment with
    one ``np.unique`` first-occurrence pass; the tests pin bit-identity
    between the two across the fuzz topologies.
    """
    for f in high:
        if not pending:
            break
        for s in (int(scratch[f, 0]), int(scratch[f, 1])):
            root = pending.pop(s, None)
            if root is not None:
                parents[root] = f


class _PreVectorizationOracle(DynamicSLD):
    """The pre-PR-9 suffix recompute: full argsort + Python glue scan.

    Kept verbatim (full `ranks_of`-style argsort, pending dict, and the
    `glue_scan_reference` loop) so the vectorized production path can be
    pinned bit-identical against it.
    """

    def _recompute_suffix(self, lo: int) -> None:
        order = np.argsort(self._ranks)
        low_arr = order[:lo]
        high_arr = order[lo:]
        high = [int(x) for x in high_arr]
        self.last_update_size = len(high)
        self.total_recomputed += len(high)
        scratch = self.edges.copy()
        pending: dict[int, int] = {}
        if lo:
            graph = coo_matrix(
                (
                    np.ones(lo, dtype=np.int8),
                    (self.edges[low_arr, 0], self.edges[low_arr, 1]),
                ),
                shape=(self.n, self.n),
            )
            _, labels = connected_components(graph, directed=False)
            labels = labels.astype(np.int64)
            comp_of_low = labels[self.edges[low_arr, 0]]
            for f, c in zip(low_arr.tolist(), comp_of_low.tolist()):
                pending[c] = f
            scratch[high_arr] = labels[self.edges[high_arr]]
        if high:
            self.parents[high_arr] = high_arr
            _solve_base(scratch, high, self.parents, self.n)
        glue_scan_reference(high, scratch, pending, self.parents)


def test_initial_build_matches_oracle():
    tree = make_tree("knuth", 60, seed=2).with_weights(
        np.random.default_rng(0).permutation(59).astype(float)
    )
    dyn = DynamicSLD(tree)
    np.testing.assert_array_equal(dyn.parents, brute_force_sld(tree))
    assert dyn.last_update_size == 59


@settings(max_examples=40, deadline=None)
@given(
    tree=weighted_trees(min_n=2, max_n=28),
    updates=st.lists(
        st.tuples(st.integers(0, 10_000), st.floats(-100, 100, allow_nan=False)),
        min_size=1,
        max_size=8,
    ),
)
def test_update_sequences_stay_exact(tree, updates):
    dyn = DynamicSLD(tree)
    for raw_e, w in updates:
        e = raw_e % tree.m
        dyn.update_weight(e, w)
        np.testing.assert_array_equal(dyn.parents, brute_force_sld(dyn.tree()))


def test_top_edge_update_is_local():
    """Re-weighting an edge that keeps its rank recomputes *nothing*;
    moving the global minimum to the top recomputes everything."""
    n = 500
    tree = make_tree("path", n).with_weights(np.arange(n - 1, dtype=float))
    dyn = DynamicSLD(tree)
    assert dyn.update_weight(n - 2, 10_000.0) == 0  # stays the max rank
    assert dyn.update_weight(0, -10.0) == 0  # stays the min rank
    assert dyn.update_weight(0, 20_000.0) == n - 1  # min -> max: full suffix
    np.testing.assert_array_equal(dyn.parents, brute_force_sld(dyn.tree()))


def test_update_size_tracks_rank_window():
    n = 200
    tree = make_tree("path", n).with_weights(np.arange(n - 1, dtype=float))
    dyn = DynamicSLD(tree)
    # move the median edge to the top: window = [median, max]
    count = dyn.update_weight(100, 10_000.0)
    assert count == (n - 1) - 100
    np.testing.assert_array_equal(dyn.parents, brute_force_sld(dyn.tree()))


def test_no_op_update_recomputes_nothing():
    """Regression pin (PR 9): a same-value update used to pay a full
    re-rank plus a suffix solve over half the tree; now it is free."""
    n = 100
    tree = make_tree("path", n).with_weights(np.arange(n - 1, dtype=float))
    dyn = DynamicSLD(tree)
    before = dyn.parents.copy()
    total_before = dyn.total_recomputed
    gen_before = dyn.generation
    count = dyn.update_weight(50, 50.0)  # identical weight
    np.testing.assert_array_equal(dyn.parents, before)
    assert count == 0
    assert dyn.last_update_size == 0
    assert dyn.total_recomputed == total_before
    assert dyn.generation == gen_before  # heights unchanged: not stale


def test_rank_preserving_update_skips_suffix_but_bumps_generation():
    """Regression pin (PR 9): a nudge inside the same rank neighborhood
    leaves every rank -- and hence the parent array -- unchanged, so the
    suffix solve is skipped; the generation still bumps because merge
    heights moved."""
    n = 100
    tree = make_tree("path", n).with_weights(np.arange(n - 1, dtype=float) * 10.0)
    dyn = DynamicSLD(tree)
    before = dyn.parents.copy()
    total_before = dyn.total_recomputed
    gen_before = dyn.generation
    assert dyn.update_weight(50, 505.0) == 0  # still between 500 and 510
    np.testing.assert_array_equal(dyn.parents, before)
    assert dyn.total_recomputed == total_before
    assert dyn.generation == gen_before + 1
    np.testing.assert_array_equal(dyn.parents, brute_force_sld(dyn.tree()))


def test_rank_swap_updates_both_nodes():
    tree = make_tree("path", 4).with_weights(np.array([1.0, 2.0, 3.0]))
    dyn = DynamicSLD(tree)
    dyn.update_weight(0, 2.5)  # edges 0 and 1 swap ranks
    np.testing.assert_array_equal(dyn.parents, brute_force_sld(dyn.tree()))
    assert dyn.ranks.tolist() == [1, 0, 2]


def test_dendrogram_and_tree_snapshots_are_isolated():
    tree = make_tree("knuth", 40, seed=1).with_weights(
        np.random.default_rng(1).permutation(39).astype(float)
    )
    dyn = DynamicSLD(tree)
    snapshot = dyn.dendrogram()
    dyn.update_weight(3, 1e6)
    # the snapshot must not see the update
    np.testing.assert_array_equal(snapshot.tree.weights, tree.weights)
    snapshot.validate()


def test_errors():
    tree = make_tree("path", 5)
    dyn = DynamicSLD(tree)
    with pytest.raises(ValueError, match="edge id"):
        dyn.update_weight(99, 1.0)
    with pytest.raises(InvalidWeightsError):
        dyn.update_weight(0, float("nan"))


def test_total_recomputed_accumulates():
    n = 50
    tree = make_tree("path", n).with_weights(np.arange(n - 1, dtype=float))
    dyn = DynamicSLD(tree)
    base = dyn.total_recomputed
    dyn.update_weight(0, 1e5)  # min -> max: full suffix
    dyn.update_weight(0, -1.0)  # max -> min: full suffix again
    assert dyn.total_recomputed == base + 2 * (n - 1)


@pytest.mark.parametrize("kind", sorted(TREE_KINDS))
@pytest.mark.parametrize("wname", ["perm", "duplicates", "denormal", "all-equal"])
def test_glue_vectorization_bit_identity(kind, wname):
    """Regression pin (PR 9): the vectorized first-occurrence glue must
    reproduce the original Python scan loop bit-for-bit, across every
    topology and the tie-heavy weight families, after every update."""
    rng = np.random.default_rng(zlib.crc32(f"{kind}/{wname}".encode()))
    n = 24
    tree = make_tree(kind, n, seed=3).with_weights(
        np.asarray(WEIGHT_FAMILIES[wname](rng, n - 1), dtype=np.float64)
    )
    fast = DynamicSLD(tree)
    slow = _PreVectorizationOracle(tree)
    np.testing.assert_array_equal(fast.parents, slow.parents)
    for _ in range(12):
        e = int(rng.integers(0, n - 1))
        w = float(rng.standard_normal())
        fast.update_weight(e, w)
        slow.update_weight(e, w)
        np.testing.assert_array_equal(fast.parents, slow.parents)
        assert fast.last_update_size == slow.last_update_size


@pytest.mark.parametrize(
    "wname", ["duplicates", "denormal", "all-equal", "near-duplicate", "mixed-sign"]
)
def test_incremental_ranks_match_full_sort(wname):
    """Regression pin (PR 9): the windowed rank shift must agree with a
    full `ranks_of` re-sort after every update, on the duplicate and
    denormal families where the (weight, edge id) tie-breaking is doing
    all the work."""
    rng = np.random.default_rng(7)
    n = 40
    tree = make_tree("caterpillar", n).with_weights(
        np.asarray(WEIGHT_FAMILIES[wname](rng, n - 1), dtype=np.float64)
    )
    dyn = DynamicSLD(tree)
    pool = np.asarray(WEIGHT_FAMILIES[wname](rng, 64), dtype=np.float64)
    for i in range(40):
        e = int(rng.integers(0, n - 1))
        w = float(pool[i % pool.size]) if rng.random() < 0.8 else float(dyn.weights[e])
        dyn.update_weight(e, w)
        np.testing.assert_array_equal(dyn.ranks, ranks_of(dyn.weights))
        # internal order/sorted-weights invariants hold too
        np.testing.assert_array_equal(
            dyn._order, np.argsort(dyn.ranks).astype(np.int64)
        )
        np.testing.assert_array_equal(dyn._sorted_weights, dyn.weights[dyn._order])
        np.testing.assert_array_equal(dyn.parents, brute_force_sld(dyn.tree()))
