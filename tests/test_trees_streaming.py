"""Out-of-core streaming Kruskal vs the in-memory reference.

The ISSUE-mandated chunk-boundary grid: chunk sizes 1, 2, ``m - 1``,
``m``, and power-of-two neighbors, crossed with tie-heavy and subnormal
weight families.  Identity is exact (``np.array_equal`` on sorted edge
ids) because both paths scan edges in the same ``(weight, id)`` rank
order and apply the same union-find acceptance rule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NotConnectedError
from repro.trees.boruvka import boruvka_mst
from repro.trees.mst import kruskal_mst, streaming_kruskal_mst
from repro.trees.validation import validate_tree_edges
from test_trees_mst import random_connected_graph, with_parallel_edges


def _duplicate(m, rng):
    return rng.integers(0, max(1, m // 8), size=m).astype(np.float64)


def _denormal(m, rng):
    return rng.integers(1, 64, size=m).astype(np.float64) * 5e-324


WEIGHT_FAMILIES = {"duplicate": _duplicate, "denormal": _denormal}


def _write(tmp_path, n, edges, weights, name="g.redg"):
    from repro.io.edgefile import write_edge_file

    path = tmp_path / name
    write_edge_file(path, n, edges, weights)
    return path


def _chunk_grid(m: int) -> list[int]:
    """Boundary chunk sizes: degenerate, off-by-one around ``m``, and
    power-of-two neighbors."""
    pow2 = 1 << (m.bit_length() - 1)
    sizes = {1, 2, max(1, m - 1), m, m + 1, max(1, pow2 - 1), pow2, pow2 + 1}
    return sorted(sizes)


@pytest.mark.parametrize("family", sorted(WEIGHT_FAMILIES))
@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_chunk_grid_matches_in_memory_kruskal(tmp_path, family, n):
    """Ids *and order* match, on the simple graph and on a multigraph of
    it (parallel edges in both orientations, tied weights)."""
    rng = np.random.default_rng(n * 7919 + len(family))
    n, edges, weights = random_connected_graph(rng, n, extra=3 * n)
    weights = WEIGHT_FAMILIES[family](edges.shape[0], rng)
    multi = with_parallel_edges(rng, edges, weights, copies=edges.shape[0] // 2 + 1)
    for name, (e, w) in {"simple": (edges, weights), "multi": multi}.items():
        path = _write(tmp_path, n, e, w, name=f"{name}.redg")
        expected = kruskal_mst(n, e, w)
        for chunk in _chunk_grid(e.shape[0]):
            for merge_block in (None, 1):
                got_n, got = streaming_kruskal_mst(path, chunk=chunk, merge_block=merge_block)
                assert got_n == n
                assert np.array_equal(got, expected), (name, family, n, chunk, merge_block)


def test_result_is_valid_spanning_tree(tmp_path):
    rng = np.random.default_rng(0)
    n, edges, weights = random_connected_graph(rng, 50, extra=120)
    path = _write(tmp_path, n, edges, weights)
    _, ids = streaming_kruskal_mst(path, chunk=13)
    assert ids.size == n - 1
    validate_tree_edges(n, edges[ids])


def test_disconnected_raises(tmp_path):
    edges = np.array([[0, 1], [2, 3]], dtype=np.int64)
    path = _write(tmp_path, 4, edges, np.ones(2))
    with pytest.raises(NotConnectedError):
        streaming_kruskal_mst(path, chunk=1)


def test_batch_forest_with_several_components(tmp_path):
    """The first merged batch's forest is three disjoint pairs, joined only
    by the next batch: relinking the batch's roots must keep them apart."""
    edges = np.array([[0, 1], [2, 3], [4, 5], [1, 2], [3, 4]], dtype=np.int64)
    path = _write(tmp_path, 6, edges, np.array([1.0, 1.0, 1.0, 5.0, 5.0]))
    _, ids = streaming_kruskal_mst(path, chunk=3, merge_block=3)
    assert ids.tolist() == [0, 1, 2, 3, 4]


def test_disconnected_multigraph_names_component_count(tmp_path):
    """Components {0,1,2}, {3,4}, {5}, {6} joined by parallel, reversed and
    tied edges: every MST path reports the true count, 4."""
    edges = np.array(
        [[0, 1], [1, 0], [1, 2], [2, 1], [0, 1], [3, 4], [4, 3], [3, 4]], dtype=np.int64
    )
    weights = np.array([1.0, 1.0, 2.0, 0.5, 1.0, 3.0, 3.0, 0.5])
    path = _write(tmp_path, 7, edges, weights)
    match = "graph has 4 connected components"
    with pytest.raises(NotConnectedError, match=match):
        streaming_kruskal_mst(path, chunk=3)
    with pytest.raises(NotConnectedError, match=match):
        kruskal_mst(7, edges, weights)
    for backend in ("reference", "array"):
        with pytest.raises(NotConnectedError, match=match):
            boruvka_mst(7, edges, weights, backend=backend)


def test_single_edge_graph(tmp_path):
    path = _write(tmp_path, 2, np.array([[0, 1]], dtype=np.int64), np.ones(1))
    got_n, ids = streaming_kruskal_mst(path, chunk=1)
    assert (got_n, ids.tolist()) == (2, [0])


def test_explicit_spill_dir_is_kept(tmp_path):
    """A caller-provided spill directory is created and left in place
    (callers own its lifecycle; only the tempdir default is cleaned)."""
    rng = np.random.default_rng(2)
    n, edges, weights = random_connected_graph(rng, 20, extra=30)
    path = _write(tmp_path, n, edges, weights)
    spill = tmp_path / "nested" / "spill"
    _, ids = streaming_kruskal_mst(path, chunk=5, spill_dir=spill)
    assert np.array_equal(ids, kruskal_mst(n, edges, weights))
    assert spill.is_dir() and any(spill.iterdir())


def test_negative_and_tied_weights(tmp_path):
    """Signed zeros and negatives stream through bit-exactly."""
    rng = np.random.default_rng(9)
    n, edges, _ = random_connected_graph(rng, 24, extra=40)
    pool = np.array([-1.0, -0.0, 0.0, 1.0, -1e300, 5e-324])
    weights = pool[rng.integers(0, pool.size, size=edges.shape[0])]
    path = _write(tmp_path, n, edges, weights)
    expected = kruskal_mst(n, edges, weights)
    for chunk in (1, 3, 8, edges.shape[0]):
        _, got = streaming_kruskal_mst(path, chunk=chunk)
        assert np.array_equal(got, expected)
