"""Out-of-core streaming Kruskal vs the in-memory reference.

The chunk-boundary grid: chunk sizes 1, 2, ``n - 2`` to ``n``, ``m - 1``
to ``m + 1``, and power-of-two neighbors, crossed with tie-heavy and
subnormal weight families.  Identity is exact (``np.array_equal`` on the
id sequences) because both paths take edges in the same ``(weight, id)``
rank order under the same acceptance rule.
"""

from __future__ import annotations

import tempfile
import tracemalloc

import numpy as np
import pytest

from repro.errors import InvalidGraphError, NotConnectedError
from repro.io import FormatError
from repro.io.edgefile import write_edge_file
from repro.trees import mst
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
    path = tmp_path / name
    write_edge_file(path, n, edges, weights)
    return path


def _chunk_grid(n: int, m: int) -> list[int]:
    """Boundary chunk sizes: degenerate, off-by-one around the tree size
    and ``m``, and power-of-two neighbors."""
    pow2 = 1 << (m.bit_length() - 1)
    sizes = {1, 2, max(1, n - 2), max(1, n - 1), n, max(1, m - 1), m, m + 1}
    return sorted(sizes | {max(1, pow2 - 1), pow2, pow2 + 1})


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
        for chunk in _chunk_grid(n, e.shape[0]):
            got_n, got = streaming_kruskal_mst(path, chunk=chunk)
            assert got_n == n
            assert np.array_equal(got, expected), (name, family, n, chunk)


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
    """The first window's forest is three disjoint pairs, joined only by
    the next window: relabelling its components must keep them apart."""
    edges = np.array([[0, 1], [2, 3], [4, 5], [1, 2], [3, 4]], dtype=np.int64)
    path = _write(tmp_path, 6, edges, np.array([1.0, 1.0, 1.0, 5.0, 5.0]))
    _, ids = streaming_kruskal_mst(path, chunk=3)
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


def test_a_run_leaves_the_temp_directory_empty(tmp_path, monkeypatch):
    """Nothing is written besides the input: the temp directory is empty
    after a run that spans the graph and after one that raises."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    rng = np.random.default_rng(2)
    n, edges, weights = random_connected_graph(rng, 20, extra=30)
    path = _write(tmp_path, n, edges, weights)
    _, ids = streaming_kruskal_mst(path, chunk=5)
    assert np.array_equal(ids, kruskal_mst(n, edges, weights))
    split = _write(tmp_path, n + 3, edges, weights, name="split.redg")
    with pytest.raises(NotConnectedError, match="graph has 4 connected components"):
        streaming_kruskal_mst(split, chunk=5)
    assert list(scratch.iterdir()) == []


def test_window_top_inside_a_run_of_tied_weights(tmp_path):
    """Every third edge weighs 1.0 (thirteen ties), the rest 2.0: a window
    of five ends inside the run of ties, and the next window resumes at a
    later id of the same weight."""
    rng = np.random.default_rng(4)
    n, edges, _ = random_connected_graph(rng, 16, extra=24)
    weights = np.where(np.arange(edges.shape[0]) % 3 == 0, 1.0, 2.0)
    path = _write(tmp_path, n, edges, weights)
    forest = mst._Components(n)
    windows = []
    for ids, cu, cv in mst._FilterWindows(path, 5, forest):
        windows.append(ids)
        forest.contract(ids, cu, cv)
    first, second = windows[0], windows[1]
    assert weights[first].tolist() == [1.0] * 5
    assert weights[second[0]] == 1.0 and second[0] > first[-1]
    _, ids = streaming_kruskal_mst(path, chunk=5)
    assert np.array_equal(ids, kruskal_mst(n, edges, weights))


def test_small_chunk_takes_many_passes(tmp_path, monkeypatch):
    """``chunk`` far below ``n``: every window holds at most ``chunk``
    candidates, so at least ``(n - 1) / chunk`` passes read the file."""
    rng = np.random.default_rng(5)
    n, edges, weights = random_connected_graph(rng, 300, extra=600)
    path = _write(tmp_path, n, edges, weights)
    passes = []
    real = mst._FilterWindows._read
    monkeypatch.setattr(
        mst._FilterWindows, "_read", lambda *args: passes.append(1) or real(*args)
    )
    _, ids = streaming_kruskal_mst(path, chunk=4)
    assert np.array_equal(ids, kruskal_mst(n, edges, weights))
    assert len(passes) >= (n - 1) / 4


@pytest.mark.parametrize("bad", ["self-loop", "out-of-range", "non-finite"])
def test_bad_record_in_the_last_chunk_fails_the_first_pass(tmp_path, monkeypatch, bad):
    """The first pass validates every record before any window is solved."""
    rng = np.random.default_rng(6)
    n, edges, weights = random_connected_graph(rng, 30, extra=40)
    if bad == "self-loop":
        edges[-1] = (3, 3)
    elif bad == "out-of-range":
        edges[-1, 1] = n
    else:
        weights[-1] = np.nan
    path = _write(tmp_path, n, edges, weights)

    def unreachable(*args):
        raise AssertionError("a window was solved before the bad record was read")

    monkeypatch.setattr(mst, "spanning_forest", unreachable)
    last = (edges.shape[0] - 1) // 7 * 7  # the first id of the last chunk
    with pytest.raises(InvalidGraphError, match=f"chunk at edge {last}:"):
        streaming_kruskal_mst(path, chunk=7)


@pytest.mark.parametrize("damage", ["magic", "clipped"])
def test_malformed_file_raises_format_error(tmp_path, damage):
    rng = np.random.default_rng(7)
    n, edges, weights = random_connected_graph(rng, 12, extra=10)
    path = _write(tmp_path, n, edges, weights)
    data = path.read_bytes()
    path.write_bytes(b"NOTREDG!" + data[8:] if damage == "magic" else data[:-8])
    with pytest.raises(FormatError):
        streaming_kruskal_mst(path, chunk=4)


def test_peak_memory_stays_flat_as_m_grows(tmp_path):
    """O(n + chunk): at the same ``n`` and ``chunk``, four times the edges
    leave the traced peak where it was."""
    n, chunk = 2_000, 512
    peaks = []
    for extra in (4_000, 16_000):
        rng = np.random.default_rng(extra)
        tree = np.column_stack([rng.integers(0, np.arange(1, n)), np.arange(1, n)])
        u = rng.integers(0, n, size=extra)
        v = (u + rng.integers(1, n, size=extra)) % n
        edges = np.concatenate([tree, np.column_stack([u, v])]).astype(np.int64)
        path = _write(tmp_path, n, edges, rng.random(edges.shape[0]), name=f"{extra}.redg")
        tracemalloc.start()
        try:
            streaming_kruskal_mst(path, chunk=chunk)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


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
