"""Batch-dynamic engine: apply_batch semantics, rollback, and staleness."""

from __future__ import annotations

import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import TREE_KINDS, make_tree
from repro.core.dynamic import DynamicSLD
from repro.core.sequf import sequf
from repro.datasets.synthetic_graphs import preferential_attachment_graph
from repro.errors import InvalidGraphError, InvalidWeightsError, NotConnectedError
from repro.trees.mst import kruskal_mst
from repro.trees.weights import ranks_of


def _square_graph():
    """4-cycle plus one chord: MST is edges 0,1,2 (weights 1,2,3)."""
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]], dtype=np.int64)
    weights = np.array([1.0, 2.0, 3.0, 10.0, 20.0])
    return 4, edges, weights


def _assert_exact(dyn: DynamicSLD) -> None:
    """The maintained state is exactly what a from-scratch solve gives."""
    np.testing.assert_array_equal(dyn.parents, sequf(dyn.tree()))
    np.testing.assert_array_equal(dyn.ranks, ranks_of(dyn.weights))
    shadow = dyn.graph_weights()
    ge = np.asarray(sorted(shadow), dtype=np.int64).reshape(-1, 2)
    gw = np.asarray([shadow[tuple(p)] for p in ge.tolist()], dtype=np.float64)
    mst = kruskal_mst(dyn.n, ge, gw)
    # all MSTs of a graph share the weight multiset
    np.testing.assert_array_equal(np.sort(dyn.weights), np.sort(gw[mst]))


def _state_fingerprint(dyn: DynamicSLD) -> dict:
    graph_edges, graph_edge_weights = dyn.graph_edges()
    return {
        "edges": dyn.edges.copy(),
        "weights": dyn.weights.copy(),
        "parents": dyn.parents.copy(),
        "ranks": dyn.ranks.copy(),
        "graph_edges": graph_edges,
        "graph_edge_weights": graph_edge_weights,
        "graph_weights": dyn.graph_weights(),
        "reserve_size": dyn.reserve_size,
        "generation": dyn.generation,
    }


def _assert_state_equal(dyn: DynamicSLD, fp: dict) -> None:
    for key, now in _state_fingerprint(dyn).items():
        if isinstance(now, np.ndarray):
            np.testing.assert_array_equal(now, fp[key], err_msg=key)
        else:
            assert now == fp[key], key


def test_from_graph_splits_tree_and_reserve():
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    assert dyn.m == n - 1
    assert dyn.reserve_size == 2
    assert dyn.graph_weights() == {
        (0, 1): 1.0,
        (1, 2): 2.0,
        (2, 3): 3.0,
        (0, 3): 10.0,
        (0, 2): 20.0,
    }
    _assert_exact(dyn)


def test_from_graph_rejects_duplicates_and_disconnection():
    with pytest.raises(InvalidGraphError, match="duplicate"):
        DynamicSLD.from_graph(
            3,
            np.array([[0, 1], [1, 2], [1, 0]], dtype=np.int64),
            np.array([1.0, 2.0, 3.0]),
        )
    with pytest.raises(NotConnectedError):
        DynamicSLD.from_graph(
            4, np.array([[0, 1], [2, 3]], dtype=np.int64), np.array([1.0, 2.0])
        )


def test_empty_batch_is_a_free_no_op():
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    fp = _state_fingerprint(dyn)
    assert dyn.apply_batch() == 0
    assert dyn.apply_batch([], []) == 0
    assert dyn.last_update_size == 0
    _assert_state_equal(dyn, fp)  # generation did NOT move


def test_reserve_only_batch_keeps_generation():
    """Inserting a heavy edge and deleting a reserve edge never touch the
    tree, so the dendrogram -- and the staleness counter -- stay put."""
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    gen = dyn.generation
    parents = dyn.parents.copy()
    assert dyn.apply_batch(inserts=[(1, 3, 99.0)]) == 0
    assert dyn.generation == gen
    assert dyn.apply_batch(deletes=[(1, 3), (0, 2)]) == 0
    assert dyn.generation == gen
    np.testing.assert_array_equal(dyn.parents, parents)
    _assert_exact(dyn)


def test_insert_evicts_path_max_into_reserve():
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    gen = dyn.generation
    # (0, 3) at weight 0.5 beats the path max 0..3 (edge (2,3), weight 3)
    dyn.apply_batch(deletes=[(0, 3)])
    count = dyn.apply_batch(inserts=[(0, 3, 0.5)])
    assert count > 0
    assert dyn.generation == gen + 1
    assert dyn.graph_weights()[(0, 3)] == 0.5
    assert (2, 3) not in dict(zip(map(tuple, np.sort(dyn.edges, axis=1).tolist()), dyn.weights))
    _assert_exact(dyn)


def test_delete_tree_edge_promotes_min_crossing_reserve():
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    # deleting (2,3) cuts {3} off; both (0,3)=10 and nothing else cross ->
    # (0,3) is promoted into the vacated slot
    dyn.apply_batch(deletes=[(2, 3)])
    assert dyn.graph_weights() == {
        (0, 1): 1.0,
        (1, 2): 2.0,
        (0, 3): 10.0,
        (0, 2): 20.0,
    }
    _assert_exact(dyn)


def test_insert_then_delete_same_edge_nets_out():
    """Documented contract: inserts run before deletes, in order, so an
    insert-then-delete of the same fresh pair in one batch is a net no-op
    on the graph (and, with distinct weights, on the parent array too)."""
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    graph_before = dyn.graph_weights()
    parents_before = dyn.parents.copy()
    dyn.apply_batch(inserts=[(1, 3, 0.25)], deletes=[(1, 3)])
    assert dyn.graph_weights() == graph_before
    np.testing.assert_array_equal(dyn.parents, parents_before)
    _assert_exact(dyn)


def test_disconnecting_delete_rolls_back_whole_batch():
    """Documented contract: a delete with no replacement raises
    NotConnectedError and the *entire* batch unwinds -- including earlier
    operations that had already applied."""
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    fp = _state_fingerprint(dyn)
    with pytest.raises(NotConnectedError, match="disconnects"):
        # the insert of (1, 3) is valid and applies first; deleting every
        # edge at vertex 0 then isolates it
        dyn.apply_batch(
            inserts=[(1, 3, 0.25)], deletes=[(0, 1), (0, 3), (0, 2)]
        )
    _assert_state_equal(dyn, fp)
    _assert_exact(dyn)


def test_duplicate_and_missing_ops_raise_and_roll_back():
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    fp = _state_fingerprint(dyn)
    with pytest.raises(ValueError, match="duplicate insert"):
        dyn.apply_batch(inserts=[(1, 3, 1.0), (3, 1, 2.0)])
    with pytest.raises(ValueError, match="duplicate delete"):
        dyn.apply_batch(deletes=[(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="already in the graph"):
        dyn.apply_batch(inserts=[(1, 3, 1.0), (0, 2, 5.0)])
    with pytest.raises(ValueError, match="not in the graph"):
        # (0, 1) deletes fine (reserve replacement), then (1, 3) is absent:
        # the partial work must unwind
        dyn.apply_batch(deletes=[(0, 1), (1, 3)])
    with pytest.raises(InvalidGraphError, match="self-loop"):
        dyn.apply_batch(inserts=[(2, 2, 1.0)])
    with pytest.raises(InvalidGraphError, match="vertex ids"):
        dyn.apply_batch(deletes=[(0, 99)])
    with pytest.raises(InvalidWeightsError):
        dyn.apply_batch(inserts=[(1, 3, float("inf"))])
    _assert_state_equal(dyn, fp)


def test_missing_delete_raises():
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    fp = _state_fingerprint(dyn)
    with pytest.raises(ValueError, match="not in the graph"):
        dyn.apply_batch(deletes=[(1, 3)])
    _assert_state_equal(dyn, fp)


def test_generation_is_monotone_and_structural_only():
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    seen = [dyn.generation]
    dyn.apply_batch()  # empty: no bump
    seen.append(dyn.generation)
    dyn.apply_batch(inserts=[(1, 3, 50.0)])  # reserve-only: no bump
    seen.append(dyn.generation)
    dyn.apply_batch(deletes=[(2, 3)])  # tree surgery: bump
    seen.append(dyn.generation)
    dyn.update_weight(0, 1.0)  # same value: no bump
    seen.append(dyn.generation)
    dyn.update_weight(0, 1.5)  # heights moved: bump
    seen.append(dyn.generation)
    assert seen == sorted(seen)
    assert seen[-1] == seen[0] + 2


def test_update_weight_recertifies_against_reserve():
    """Raising a tree edge past a reserve edge crossing its cut must swap
    them (cycle rule re-certification), keeping the tree an MST."""
    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    # raise tree edge (0,1) past reserve (0,2)=20: cut {0} vs {1,2,3} is
    # crossed by (0,3)=10 and (0,2)=20 -> (0,3) swaps in
    dyn.update_weight(0, 1000.0)
    graph = dyn.graph_weights()
    assert graph[(0, 1)] == 1000.0
    tree_pairs = {tuple(sorted(p)) for p in dyn.edges.tolist()}
    assert (0, 3) in tree_pairs and (0, 1) not in tree_pairs
    _assert_exact(dyn)


def test_rollback_after_chained_slot_rewrites():
    """A batch that evicts tree edges, evicts an edge an earlier insert of
    the same batch put in (one slot rewritten twice), promotes a reserve
    edge, and then hits a disconnecting delete unwinds to the exact
    pre-batch state; the next valid batch is still exact."""
    # Path 0-1-2-3-4-5-6 (slots 0..5) plus two reserve edges.
    edges = np.array(
        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [0, 5], [2, 4]], dtype=np.int64
    )
    weights = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 100.0, 70.0])
    dyn = DynamicSLD.from_graph(7, edges, weights)
    dyn.update_weight(0, 12.0)  # generation 1: rollback must not reset it
    fp = _state_fingerprint(dyn)
    inserts = [
        (0, 3, 25.0),  # evicts (2, 3) = 30 from slot 2
        (1, 3, 22.0),  # evicts (0, 3) = 25, the insert above: slot 2 again
        (3, 5, 45.0),  # evicts (4, 5) = 50 from slot 4
    ]
    with pytest.raises(NotConnectedError, match="disconnects"):
        # (1, 2) promotes (2, 3) from the reserve; (5, 6) cuts off vertex 6
        dyn.apply_batch(inserts=inserts, deletes=[(1, 2), (5, 6)])
    _assert_state_equal(dyn, fp)
    _assert_exact(dyn)

    dyn.apply_batch(inserts=inserts, deletes=[(1, 2)])
    tree_pairs = sorted(map(tuple, np.sort(dyn.edges, axis=1).tolist()))
    assert tree_pairs == [(0, 1), (1, 3), (2, 3), (3, 4), (3, 5), (5, 6)]
    assert dyn.generation == fp["generation"] + 1
    _assert_exact(dyn)


def test_reserve_only_batches_allocate_what_they_touch():
    """Heavy inserts that only enter the reserve, and their deletes, cost
    what they touch: no per-batch copy of the tree, ranks or reserve
    (a state copy at n = 20 000 allocates megabytes)."""
    n, edges = preferential_attachment_graph(20_000, m_attach=4, seed=0)
    rng = np.random.default_rng(0)
    dyn = DynamicSLD.from_graph(n, edges, rng.random(edges.shape[0]))
    present = dyn.graph_weights()
    fresh: list[tuple[int, int]] = []
    while len(fresh) < 16:
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u != v and (u, v) not in present and (u, v) not in fresh:
            fresh.append((u, v))
    heavy = float(dyn.weights.max()) + 1.0
    # The first round grows the reserve's capacity; the second is measured.
    for pairs in (fresh[:8], fresh[8:]):
        peaks = []
        for batch in ({"inserts": [(u, v, heavy) for u, v in pairs]}, {"deletes": pairs}):
            tracemalloc.start()
            try:
                assert dyn.apply_batch(**batch) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) < 256 * 1024, peaks
    assert dyn.graph_weights() == present


@pytest.mark.parametrize(
    ("kind", "n", "tied"),
    [
        pytest.param(
            kind, n, tied, id=kind + ("-300" if n == 300 else "") + ("-tied" if tied else "")
        )
        for tied in (False, True)
        for n in (18, 300)
        for kind in sorted(TREE_KINDS)
    ],
)
def test_batched_streams_stay_exact_across_topologies(kind, n, tied):
    """Mixed insert/delete/update streams over every topology: the
    maintained parent array is bit-identical to recompute-from-scratch
    after every batch (the tentpole acceptance oracle).  At n = 300 the
    path and caterpillar kinds relink slots across long root paths.  The
    ``tied`` family draws every weight from {0, 1, 2}, so most ranks are
    settled by the ``(weight, slot)`` tie-break."""
    rng = np.random.default_rng(zlib.crc32(f"{kind}/{n}{'/tied' if tied else ''}".encode()))

    def weight() -> float:
        return float(rng.integers(0, 3)) if tied else float(rng.standard_normal())

    if tied:
        weights = rng.integers(0, 3, size=n - 1).astype(np.float64)
    else:
        weights = rng.permutation(n - 1).astype(np.float64)
    tree = make_tree(kind, n, seed=5).with_weights(weights)
    dyn = DynamicSLD(tree)
    shadow = dyn.graph_weights()
    for _ in range(8):
        inserts = []
        for _ in range(int(rng.integers(0, 4))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            key = (min(u, v), max(u, v))
            if u == v or key in shadow or any(key == (min(a, b), max(a, b)) for a, b, _ in inserts):
                continue
            inserts.append((u, v, weight()))
        pend = dict(shadow)
        pend.update({(min(u, v), max(u, v)): w for u, v, w in inserts})
        deletes = []
        for _ in range(int(rng.integers(0, 3))):
            if not pend:
                break
            key = sorted(pend)[int(rng.integers(0, len(pend)))]
            deletes.append(key)
            del pend[key]
        try:
            dyn.apply_batch(inserts, deletes)
        except NotConnectedError:
            _assert_exact(dyn)  # rollback left a consistent engine
            continue
        shadow = pend
        assert dyn.graph_weights() == shadow
        _assert_exact(dyn)
        e = int(rng.integers(0, dyn.m))
        dyn.update_weight(e, weight())
        key = tuple(sorted((int(dyn.edges[e, 0]), int(dyn.edges[e, 1]))))
        shadow = dyn.graph_weights()
        _assert_exact(dyn)


def test_snapshot_carries_generation_stamp(tmp_path):
    from repro.dendrogram.query import QueryEngine
    from repro.dendrogram.snapshot import load_snapshot, save_snapshot

    n, edges, weights = _square_graph()
    dyn = DynamicSLD.from_graph(n, edges, weights)
    dyn.apply_batch(deletes=[(2, 3)])  # bump generation
    snap = dyn.snapshot()
    assert snap.generation == dyn.generation
    path = tmp_path / "dyn.npz"
    save_snapshot(path, snap)
    loaded = load_snapshot(path)
    assert loaded.generation == dyn.generation
    engine = QueryEngine(loaded)
    assert engine.generation == dyn.generation
    assert not engine.is_stale(dyn.generation)
    dyn.update_weight(0, 123.0)
    assert engine.is_stale(dyn.generation)


def test_unstamped_snapshots_are_never_stale(tmp_path):
    from repro.dendrogram.query import QueryEngine
    from repro.dendrogram.snapshot import build_snapshot, load_snapshot, save_snapshot

    tree = make_tree("path", 6).with_weights(np.arange(5, dtype=float))
    dyn = DynamicSLD(tree)
    snap = build_snapshot(dyn.dendrogram())  # no stamp
    assert snap.generation == -1
    path = tmp_path / "plain.npz"
    save_snapshot(path, snap)
    loaded = load_snapshot(path)
    assert loaded.generation == -1
    engine = QueryEngine(loaded)
    assert not engine.is_stale(0)
    assert not engine.is_stale(10**9)


def test_snapshot_reuses_the_engine_ranks_slab_for_slab():
    """``snapshot()`` hands the engine's ranks to the tree it builds from;
    after every batch of a mixed stream its slabs equal a snapshot of
    ``dendrogram()``, whose tree ranks its weights afresh.  A snapshot
    keeps its own ranks when a later batch moves the engine's."""
    from repro.dendrogram.snapshot import build_snapshot

    slabs = ("edges", "weights", "ranks", "parents", "pos", "by_rank", "table")
    nn, edges = preferential_attachment_graph(400, m_attach=3, seed=1)
    rng = np.random.default_rng(1)
    dyn = DynamicSLD.from_graph(nn, edges, rng.random(edges.shape[0]))
    present = dyn.graph_weights()
    for _ in range(6):
        fresh = []
        while len(fresh) < 5:
            u, v = sorted(int(x) for x in rng.integers(0, nn, size=2))
            if u != v and (u, v) not in present and (u, v) not in fresh:
                fresh.append((u, v))
        inserts = [(u, v, float(rng.random())) for u, v in fresh]
        for batch in ({"inserts": inserts}, {"deletes": fresh}):
            dyn.apply_batch(**batch)
            snap = dyn.snapshot()
            fresh_snap = build_snapshot(dyn.dendrogram(), generation=dyn.generation)
            for name in slabs:
                got, want = getattr(snap, name), getattr(fresh_snap, name)
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)
            assert snap.generation == dyn.generation
    early = dyn.snapshot()
    kept = early.ranks.copy()
    e = int(np.argmin(dyn.ranks))
    dyn.update_weight(e, float(dyn.weights.max()) + 1.0)  # min rank -> max rank
    assert not np.array_equal(dyn.snapshot().ranks, kept)
    np.testing.assert_array_equal(early.ranks, kept)
