"""Minimum spanning trees: the graph -> tree reduction for single linkage.

Single-linkage clustering of a weighted connected graph equals single
linkage on its MST (Gower & Ross 1969; paper Section 2.3), so the
clustering pipelines in :mod:`repro.cluster`, the dynamic engine and the
real-world-input benchmarks (Figure 8) build one before the dendrogram
algorithms.  They all call one MST stage, :func:`mst_ids` (or
:func:`minimum_spanning_tree`, its ids packaged as a tree), which picks
the algorithm from the graph's density:

* below :data:`KRUSKAL_DENSITY` edges per vertex, Borůvka
  (:func:`repro.trees.boruvka.boruvka_rounds`: the array spanning-forest
  kernel, or the instrumented round loop);
* from there on, :func:`kruskal_mst` -- Kruskal with union-find (batched
  when uninstrumented), whose rank-order scan stops once the tree is
  complete, so most of a dense graph's edges are never scanned.

:func:`kruskal_mst` is also the independent oracle the tests, the fuzzer
and the benchmark check every other MST against, and
:func:`streaming_kruskal_mst` is out-of-core Kruskal over a REDG1 edge
file: filter-Kruskal passes, each of which reads the file once, keeps a
window of at most ``chunk`` rank-ordered edges that still join two
components, and solves it with the spanning-forest kernel.  It sorts
nothing on disk and writes no temporary files.

Ties are broken by edge id (rank order) everywhere, so ranks are unique,
the MST is unique, and every routine returns the same tree.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.errors import NotConnectedError
from repro.runtime.cost_model import (
    CostTracker,
    WorkDepth,
    check_backend,
    comparison_sort_cost,
    instrumented,
)
from repro.structures.unionfind import UnionFind
from repro.trees import boruvka
from repro.trees.boruvka_fast import spanning_forest
from repro.trees.validation import check_graph
from repro.trees.wtree import WeightedTree

__all__ = [
    "KRUSKAL_DENSITY",
    "kruskal_mst",
    "mst_ids",
    "streaming_kruskal_mst",
    "minimum_spanning_tree",
]

#: Edges per vertex from which :func:`mst_ids` runs Kruskal instead of
#: Borůvka: the largest density at which Borůvka was no slower at every
#: measured size (the crossover falls as n grows; see EXPERIMENTS.md).
KRUSKAL_DENSITY = 24

#: Edges per vectorized Kruskal batch (the fast-path inner-loop grain).
_KRUSKAL_CHUNK = 4096


def kruskal_mst(
    n: int,
    edges: np.ndarray,
    weights: np.ndarray,
    tracker: CostTracker | None = None,
) -> np.ndarray:
    """Edge ids of the MST, by Kruskal's algorithm (rank order, union-find).

    Raises :class:`NotConnectedError` if the graph does not span ``n``
    vertices.

    With instrumentation inactive (no ``tracker``, no shadow-access
    recorder) the scan runs the batched fast path: edges are processed in
    chunks, each chunk's endpoints are resolved by one vectorized
    :meth:`~repro.structures.unionfind.UnionFind.find_many` batch, and the
    not-yet-scanned edge list is periodically compacted by dropping
    intra-component edges the same way.  The instrumented path keeps the
    classic per-edge scan so charged find steps stay exact per element.
    """
    edges, weights = check_graph(n, edges, weights)
    order = np.argsort(weights, kind="stable")  # rank order: (weight, edge id)
    uf = UnionFind(n)
    if not instrumented(tracker):
        chosen = _kruskal_scan_batched(uf, edges, order, n)
    else:
        chosen, scanned = _kruskal_scan(uf, edges, order, n)
        if tracker is not None:
            tracker.add(comparison_sort_cost(edges.shape[0]))
            # The scan is inherently sequential: one O(1)-amortized
            # union-find step per scanned edge (true find steps counted).
            loop_work = float(scanned + uf.find_steps)
            tracker.add(WorkDepth(loop_work, loop_work))
    if len(chosen) != n - 1:
        raise NotConnectedError(
            f"graph has {uf.num_sets} connected components; cannot span {n} vertices"
        )
    return np.asarray(chosen, dtype=np.int64)


def _kruskal_scan(
    uf: UnionFind, edges: np.ndarray, order: np.ndarray, n: int
) -> tuple[list[int], int]:
    """The classic per-edge Kruskal scan (instrumented/recorded path)."""
    chosen: list[int] = []
    scanned = 0
    for e in order:
        scanned += 1
        u, v = int(edges[e, 0]), int(edges[e, 1])
        if uf.find(u) != uf.find(v):
            uf.union(u, v)
            chosen.append(int(e))
            if len(chosen) == n - 1:
                break
    return chosen, scanned


def _kruskal_scan_batched(
    uf: UnionFind, edges: np.ndarray, order: np.ndarray, n: int
) -> list[int]:
    """Chunked Kruskal scan over vectorized batch finds (fast path).

    Chooses exactly the edge set of :func:`_kruskal_scan`: a chunk's batch
    roots only *pre-filter* obviously intra-component edges; survivors are
    re-checked per edge (an earlier in-chunk union may have connected
    them) before being taken.
    """
    chosen: list[int] = []
    need = n - 1
    remaining = order
    since_compact = 0
    while remaining.size and len(chosen) < need:
        batch = remaining[:_KRUSKAL_CHUNK]
        remaining = remaining[_KRUSKAL_CHUNK:]
        since_compact += batch.size
        ru = uf.find_many(edges[batch, 0])
        rv = uf.find_many(edges[batch, 1])
        cross = ru != rv
        for e, a, b in zip(batch[cross].tolist(), ru[cross].tolist(), rv[cross].tolist()):
            if uf.find(a) != uf.find(b):
                uf.union(a, b)
                chosen.append(e)
                if len(chosen) == need:
                    break
        # Compact the tail: one batch find pass drops every edge already
        # known to be intra-component, so later chunks scan only
        # survivors.  Amortized: each O(remaining) pass runs only after
        # at least that many edges were scanned since the last one, so
        # total compaction work stays within a constant factor of the
        # scan (compacting after every chunk is quadratic at 10**7
        # edges).  Dropped edges are exactly those the per-edge recheck
        # would skip, so the chosen set is unchanged.
        if remaining.size > 2 * _KRUSKAL_CHUNK and since_compact >= remaining.size:
            ru = uf.find_many(edges[remaining, 0])
            rv = uf.find_many(edges[remaining, 1])
            remaining = remaining[ru != rv]
            since_compact = 0
    return chosen


#: Share of ``chunk`` a predicted window aims to fill: sampling noise
#: then rarely pushes a window past ``chunk`` into a trim.
_WINDOW_FILL = 0.9

#: Window bounds are ``(weight, id)`` keys; weights are finite, so these
#: lie below and above every record.
_BOTTOM = (-np.inf, -1)
_TOP = (np.inf, -1)


@cost_bound(
    work="m * n",
    depth="m * n",
    vars=("m", "n"),
    kind="helper",
    theorem="filter-Kruskal: each pass reads the m records once and solves "
    "one window of at most chunk crossing edges with the spanning-forest "
    "kernel; a window's lightest candidate is a tree edge, so there are at "
    "most n - 1 passes, about (n - 1) / chunk on simple graphs",
)
def streaming_kruskal_mst(path: "str | Path", chunk: int = 262144) -> tuple[int, np.ndarray]:
    """Out-of-core Kruskal over a REDG1 edge file; returns ``(n, ids)``.

    Filter-Kruskal (Osipov, Sanders and Singler; the filtering MST of
    GBBS) for graphs larger than RAM.  Each pass reads the file in
    ``chunk``-edge pieces and keeps the edges whose ``(weight, edge-id)``
    rank key lies in the pass's window and whose endpoints are still in
    different components; a window keeps at most ``chunk`` edges.  It is
    sorted by rank and solved at once: its minimum spanning forest
    over the current components
    (:func:`repro.trees.boruvka_fast.spanning_forest`) is exactly the set
    a per-edge scan of it would take, and the kernel's component labels
    relabel every vertex.  The next window starts above this one; its top
    is predicted from a strided sample of the records, read by the first
    pass, that lie above it and still cross, and a top-``chunk``
    selection lowers it when the prediction overshoots.  The first pass
    validates every record; once ``n - 1`` edges are chosen no further
    pass runs.  Nothing is written to disk.

    The chosen ids are **bit-identical** to in-memory
    :func:`kruskal_mst` on the same ``(n, edges, weights)``, in the same
    (rank) order, for every ``chunk``: ranks are unique, so each window's
    forest is unique.  Peak memory is ``O(n + chunk)`` regardless of
    ``m``.  Raises :class:`NotConnectedError` when the graph does not
    span ``n`` vertices, :class:`~repro.io.FormatError` /
    :class:`~repro.errors.InvalidGraphError` for malformed files.
    """
    from repro.io.edgefile import read_edge_header

    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    n, _ = read_edge_header(path)
    forest = _Components(n)
    chosen = [np.empty(0, dtype=np.int64)]
    for window in _FilterWindows(path, chunk, forest):
        chosen.append(forest.contract(*window))
        if forest.count == 1:
            break
    if forest.count != 1:
        raise NotConnectedError(
            f"graph has {forest.count} connected components; cannot span {n} vertices"
        )
    return n, np.concatenate(chosen)


class _Components:
    """Dense component labels of the vertices, ``0..count-1``."""

    def __init__(self, n: int) -> None:
        self.label = np.arange(n, dtype=np.int64)
        self.count = n

    def contract(self, ids: np.ndarray, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """Kruskal over one rank-ordered window of edges between the
        labels ``cu[i]`` and ``cv[i]``; returns the ids it takes.

        The kernel runs over the window's labels compacted to ``0..k-1``.
        In the new labelling its merged components come first and the
        labels it did not touch follow, in order.
        """
        free = np.ones(self.count, dtype=bool)
        free[cu] = False
        free[cv] = False
        # below[x]: labels up to x the window does not touch, so a touched
        # label x compacts to x - below[x].
        below = np.cumsum(free)
        k = self.count - int(below[-1])
        picked, _, merged = spanning_forest(
            cu - below[cu], cv - below[cv], np.arange(ids.size, dtype=np.int64), k
        )
        left = k - picked.size
        below += left - 1  # an untouched label's new one
        below[~free] = merged
        # In place: each slot reads its own old label before it is written,
        # and the labels are in range, so no bounds buffer is needed.
        np.take(below, self.label, out=self.label, mode="clip")
        self.count += left - k
        return ids[picked]


def _above(w: np.ndarray, ids: np.ndarray, key: tuple[float, int]) -> np.ndarray:
    """Mask of the records whose ``(weight, id)`` key exceeds ``key``."""
    return (w > key[0]) | ((w == key[0]) & (ids > key[1]))


class _FilterWindows:
    """The filter-Kruskal windows of one REDG1 file, lightest first.

    Iterating yields ``(ids, cu, cv)`` in rank order: the at most
    ``chunk`` lightest edges above the previous window whose endpoints
    carry different ``forest`` labels, with those labels.  The caller
    contracts each window into ``forest`` before asking for the next,
    which is filtered by the new labels; the windows end with the one
    that reaches the last record.
    """

    def __init__(self, path: "str | Path", chunk: int, forest: _Components) -> None:
        from repro.io.edgefile import read_edge_header

        self.path, self.chunk, self.forest = path, chunk, forest
        _, self.m = read_edge_header(path)
        # Every stride-th record, read by the first pass: at most chunk / 4 + 1.
        self.stride = max(1, -(-self.m // max(1, chunk // 4)))
        size = -(-self.m // self.stride)
        self.sample_w = np.empty(size, dtype=np.float64)
        self.sample_ends = np.empty((size, 2), dtype=np.int64)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        lo, hi = _BOTTOM, _TOP
        while True:  # at most n - 1 passes: each window holds a tree edge
            (w, ids, cu, cv), hi = self._read(lo, hi)
            order = np.argsort(w)
            ordered = w[order]
            if (ordered[1:] == ordered[:-1]).any():
                # Ties go by id, which ascends in w: a stable sort.
                order = np.argsort(w, kind="stable")
            ids, cu, cv = ids[order], cu[order], cv[order]
            del w, order, ordered
            yield ids, cu, cv
            if hi == _TOP:
                return
            lo = hi
            hi = self._predict_top(lo)

    def _read(
        self, lo: tuple[float, int], hi: tuple[float, int]
    ) -> tuple[tuple[np.ndarray, ...], tuple[float, int]]:
        """One pass over the file: the crossing records above ``lo`` and
        at or below the window's top, in id order as ``(w, ids, cu, cv)``,
        and that top (``hi``, or lower after a trim).  The first pass
        also validates every record and reads the sample."""
        from repro.io.edgefile import iter_edge_chunks

        first = lo == _BOTTOM
        label, chunk, stride = self.forest.label, self.chunk, self.stride
        # The window's weights, ids and endpoint labels, in id order.  A
        # trim leaves chunk records and one read adds at most chunk more.
        cap = min(2 * chunk, self.m)
        held = (np.empty(cap), *(np.empty(cap, dtype=np.int64) for _ in range(3)))
        size = 0
        for start, edges, weights in iter_edge_chunks(self.path, chunk, validate=first):
            if first:
                slot = -(-start // stride)
                picked = slice(slot * stride - start, None, stride)
                count = weights[picked].size
                self.sample_w[slot : slot + count] = weights[picked]
                self.sample_ends[slot : slot + count] = edges[picked]
            # The window test, on the weights first and the labels last.
            pos = np.flatnonzero((weights >= lo[0]) & (weights <= hi[0]))
            w, ids = weights[pos], start + pos
            pos = pos[_above(w, ids, lo) & ~_above(w, ids, hi)]
            cu, cv = label[edges[pos, 0]], label[edges[pos, 1]]
            cross = cu != cv
            pos = pos[cross]
            end = size + pos.size
            for col, piece in zip(held, (weights[pos], start + pos, cu[cross], cv[cross])):
                col[size:end] = piece
            size = end
            if size > chunk:
                hi = _trim(held, size, chunk)
                size = chunk
        return tuple(col[:size] for col in held), hi

    def _predict_top(self, lo: tuple[float, int]) -> tuple[float, int]:
        """The key that should admit ``_WINDOW_FILL * chunk`` crossing
        edges above ``lo``: each sampled record above it that still
        crosses stands for ``stride`` records."""
        label, ends = self.forest.label, self.sample_ends
        ids = np.arange(self.sample_w.size, dtype=np.int64) * self.stride
        keep = _above(self.sample_w, ids, lo) & (label[ends[:, 0]] != label[ends[:, 1]])
        j = max(1, int(_WINDOW_FILL * self.chunk / self.stride)) - 1
        if j >= np.count_nonzero(keep):
            return _TOP
        return _key_of_rank(self.sample_w[keep], ids[keep], j)


def _trim(held: tuple[np.ndarray, ...], size: int, chunk: int) -> tuple[float, int]:
    """Keep the ``chunk`` lightest of the first ``size`` id-ordered
    records in ``held``, at its front; returns the key of the heaviest
    record kept, the window's new top."""
    top = _key_of_rank(held[0][:size], held[1][:size], chunk - 1)
    keep = ~_above(held[0][:size], held[1][:size], top)
    for col in held:
        col[:chunk] = col[:size][keep]
    return top


def _key_of_rank(w: np.ndarray, ids: np.ndarray, k: int) -> tuple[float, int]:
    """The ``(weight, id)`` key of rank ``k`` (from 0) among records whose
    ids ascend."""
    wk = np.partition(w, k)[k]
    return float(wk), int(ids[w == wk][k - int(np.count_nonzero(w < wk))])


def mst_ids(
    n: int,
    edges: np.ndarray,
    weights: np.ndarray,
    backend: str = "auto",
) -> np.ndarray:
    """Ascending edge ids of the MST, by the algorithm the density picks.

    Below :data:`KRUSKAL_DENSITY` edges per vertex this runs Borůvka
    (:func:`repro.trees.boruvka.boruvka_rounds`, looked up at call time):
    the array spanning-forest kernel, or the reference round loop under
    ``backend="reference"`` or instrumentation.  From there on it runs
    :func:`kruskal_mst`, which picks its fast path from instrumentation
    state and ignores ``backend``.  The ids are the same either way:
    ranks are unique, so the MST is.

    Raises :class:`~repro.errors.InvalidGraphError` for malformed input
    and :class:`NotConnectedError` if the graph does not span ``n``
    vertices.
    """
    check_backend(backend)
    if len(edges) >= KRUSKAL_DENSITY * n:
        return np.sort(kruskal_mst(n, edges, weights))
    return boruvka.boruvka_rounds(n, edges, weights, backend=backend)[0]


def minimum_spanning_tree(
    n: int,
    edges: np.ndarray,
    weights: np.ndarray,
    backend: str = "auto",
) -> WeightedTree:
    """MST of a weighted graph (the :func:`mst_ids` stage) as a
    :class:`WeightedTree`.

    The returned tree's edges keep their graph weights; edge ids are
    renumbered 0..n-2 in increasing original-edge-id order.  ``backend``
    is forwarded to :func:`mst_ids`.
    """
    edge_arr = np.asarray(edges, dtype=np.int64)
    weight_arr = np.asarray(weights, dtype=np.float64)
    ids = mst_ids(n, edge_arr, weight_arr, backend=backend)
    return WeightedTree(n, edge_arr[ids], weight_arr[ids], validate=False)
