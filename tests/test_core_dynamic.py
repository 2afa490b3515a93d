"""Dynamic SLD: exactness under updates and the splice's locality."""

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
from repro.datasets.synthetic_graphs import preferential_attachment_graph
from repro.dendrogram.metrics import dendrogram_height
from repro.errors import InvalidWeightsError
from repro.fuzz.generators import WEIGHT_FAMILIES
from repro.trees.weights import ranks_of


def glue_scan_reference(
    high: list[int],
    scratch: np.ndarray,
    pending: dict[int, int],
    parents: np.ndarray,
) -> None:
    """The pre-vectorization glue step of the suffix repair.

    Scans the high edges in rank order and attaches each pending low
    component root to the first high edge incident to its supervertex
    (Lemma 4.2).
    """
    for f in high:
        if not pending:
            break
        for s in (int(scratch[f, 0]), int(scratch[f, 1])):
            root = pending.pop(s, None)
            if root is not None:
                parents[root] = f


class _PreVectorizationOracle(DynamicSLD):
    """The engine with the suffix repair in place of the splice.

    Every slot rewrite re-solves the dendrogram above the lowest rank the
    rewrite touched: the low forest's components survive (Lemma 3.2), the
    contracted high tree is solved from scratch (full argsort, the
    weight-D&C base solver) and the low roots are glued by the Python scan
    loop (Lemma 4.2).  The engine repaired this way until the splice
    replaced it; the tests pin the splice's parents against it.
    """

    def __init__(self, tree) -> None:
        super().__init__(tree)
        self._lo = self.m

    def _shift_rank(self, e: int) -> tuple[int, int]:
        old, new = super()._shift_rank(e)
        if old != new:
            self._lo = min(self._lo, old, new)
        return old, new

    def _splice(self, e, side, pair=None, w=0.0) -> int:
        if pair is not None:
            self._set_slot(e, pair, w)
        lo, self._lo = self._lo, self.m
        self._recompute_suffix(lo)
        return self.m - lo

    def _recompute_suffix(self, lo: int) -> None:
        order = np.argsort(self._ranks)
        low_arr = order[:lo]
        high_arr = order[lo:]
        high = [int(x) for x in high_arr]
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


def _root_path(parents: np.ndarray, x: int) -> list[int]:
    path = [int(x)]
    while parents[path[-1]] != path[-1]:
        path.append(int(parents[path[-1]]))
    return path


def _leaf_spine(dyn: DynamicSLD, parents: np.ndarray, x: int) -> list[int]:
    """Nodes whose cluster holds vertex ``x``: from its lowest-rank slot up."""
    slots = np.flatnonzero((dyn.edges[:, 0] == x) | (dyn.edges[:, 1] == x))
    return _root_path(parents, int(slots[np.argmin(dyn.ranks[slots])]))


def _splice_visits(dyn: DynamicSLD, before: np.ndarray, after: np.ndarray, e: int) -> int:
    """What one rewrite of slot ``e`` visits, from the dendrograms alone.

    The old edge's strict ancestors and node children, the slot itself,
    and every node on the new edge's two spines (in ``after``, without
    the slot) that was not an ancestor of the old edge.
    """
    anc = set(_root_path(before, e)[1:])
    kids = int(np.count_nonzero(before == e)) - int(before[e] == e)
    u, v = int(dyn.edges[e, 0]), int(dyn.edges[e, 1])
    spines = set(_leaf_spine(dyn, after, u)) | set(_leaf_spine(dyn, after, v))
    return len(anc) + kids + len(spines - {e} - anc) + 1


def _height(dyn: DynamicSLD) -> int:
    return dendrogram_height(dyn.parents, dyn.ranks)


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
    """Re-weighting an edge that keeps its rank repairs *nothing*; moving
    the global minimum of an ascending path to the top visits its n - 2
    ancestors, which stay one spine, and the slot itself."""
    n = 500
    tree = make_tree("path", n).with_weights(np.arange(n - 1, dtype=float))
    dyn = DynamicSLD(tree)
    assert dyn.update_weight(n - 2, 10_000.0) == 0  # stays the max rank
    assert dyn.update_weight(0, -10.0) == 0  # stays the min rank
    assert dyn.update_weight(0, 20_000.0) == n - 1  # min -> max: one spine
    np.testing.assert_array_equal(dyn.parents, brute_force_sld(dyn.tree()))


def test_update_size_tracks_rank_window():
    n = 200
    tree = make_tree("path", n).with_weights(np.arange(n - 1, dtype=float))
    dyn = DynamicSLD(tree)
    # Move edge 100 of the ascending path to the top.  The splice visits
    # its n - 102 strict ancestors (101..n-2), its one node child (99),
    # that child again as the root of vertex 100's side, and the slot.
    count = dyn.update_weight(100, 10_000.0)
    assert count == (n - 102) + 1 + 1 + 1
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
    # min -> max: the n - 2 ancestors stay one spine, plus the slot.
    assert dyn.update_weight(0, 1e5) == n - 1
    # max -> min: the root's one node child (n - 2), then vertex 1's spine
    # up to that child (edges 1..n-2), plus the slot.
    assert dyn.update_weight(0, -1.0) == 1 + (n - 2) + 1
    assert dyn.total_recomputed == base + (n - 1) + n


@pytest.mark.parametrize("kind", sorted(TREE_KINDS))
@pytest.mark.parametrize("wname", ["perm", "duplicates", "denormal", "all-equal"])
def test_glue_vectorization_bit_identity(kind, wname):
    """The splice reproduces the suffix repair (full re-solve above the
    lowest touched rank, Python glue scan) bit for bit, across every
    topology and the tie-heavy weight families, after every update; and
    each update visits exactly the nodes the splice's definition names,
    counted from the oracle's dendrograms before and after."""
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
        before = slow.parents.copy()
        fast.update_weight(e, w)
        slow.update_weight(e, w)
        np.testing.assert_array_equal(fast.parents, slow.parents)
        if slow.last_update_size:
            assert fast.last_update_size == _splice_visits(fast, before, slow.parents, e)
        else:
            assert fast.last_update_size == 0


def test_splice_matches_the_suffix_repair_under_batches():
    """Batches of cycle-rule inserts and cut-rule deletes over a graph:
    the splice and the suffix repair agree on every parent."""
    nn, edges = preferential_attachment_graph(300, m_attach=3, seed=4)
    rng = np.random.default_rng(4)
    weights = rng.random(edges.shape[0])
    fast = DynamicSLD.from_graph(nn, edges, weights)
    slow = _PreVectorizationOracle.from_graph(nn, edges, weights)
    present = fast.graph_weights()
    for _ in range(10):
        fresh = []
        while len(fresh) < 6:
            u, v = sorted(int(x) for x in rng.integers(0, nn, size=2))
            if u != v and (u, v) not in present and (u, v) not in fresh:
                fresh.append((u, v))
        inserts = [(u, v, float(rng.random())) for u, v in fresh]
        for batch in ({"inserts": inserts}, {"deletes": fresh}):
            assert (fast.apply_batch(**batch) > 0) == (slow.apply_batch(**batch) > 0)
            np.testing.assert_array_equal(fast.parents, slow.parents)
            np.testing.assert_array_equal(fast.edges, slow.edges)
    assert fast.graph_weights() == present


def test_splice_cost_follows_the_height():
    """Every repair visits at most rewrites * (3h + 2) nodes, h the larger
    dendrogram height before and after: per rewrite, f's strict ancestors
    (< h), its node children (<= 2), the slot, and two spines (<= h each).
    A knuth tree under update_weight (one rewrite each) and a
    preferential-attachment engine under single-edge batches."""
    n = 4_000
    rng = np.random.default_rng(11)
    tree = make_tree("knuth", n, seed=1).with_weights(rng.permutation(n - 1).astype(float))
    dyn = DynamicSLD(tree)
    # The suffix solve re-solved m - lo nodes from the lowest touched rank.
    e = int(np.argsort(dyn.ranks)[int(0.1 * (n - 2))])
    lo = int(dyn.ranks[e])
    visits = dyn.update_weight(e, float(dyn.weights[e]) + 1.5)
    assert 0 < visits < dyn.m - lo
    for _ in range(40):
        h = _height(dyn)
        e = int(rng.integers(0, dyn.m))
        visits = dyn.update_weight(e, float(rng.uniform(-10, n + 10)))
        assert visits <= 3 * max(h, _height(dyn)) + 2
    np.testing.assert_array_equal(dyn.parents, brute_force_sld(dyn.tree()))

    nn, edges = preferential_attachment_graph(2_000, m_attach=4, seed=2)
    dyn = DynamicSLD.from_graph(nn, edges, rng.random(edges.shape[0]))
    present = dyn.graph_weights()
    rewrites = 0
    for _ in range(30):
        u, v = sorted(int(x) for x in rng.integers(0, nn, size=2))
        if u == v or (u, v) in present:
            continue
        for batch in ({"inserts": [(u, v, float(rng.random()) * 0.2)]}, {"deletes": [(u, v)]}):
            h, gen = _height(dyn), dyn.generation
            visits = dyn.apply_batch(**batch)
            rewrites += dyn.generation - gen
            assert visits <= (dyn.generation - gen) * (3 * max(h, _height(dyn)) + 2)
    assert rewrites > 10
    assert dyn.graph_weights() == present
    np.testing.assert_array_equal(dyn.parents, brute_force_sld(dyn.tree()))


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
