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
file: external sort into spill runs, then a k-way merge in rank order
whose batches are solved by the spanning-forest kernel.

Ties are broken by edge id (rank order) everywhere, so ranks are unique,
the MST is unique, and every routine returns the same tree.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.checkers.contracts import slab_contract
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


@cost_bound(
    work="m * log(m)",
    depth="m",
    vars=("m",),
    kind="helper",
    theorem="external sort: O(m/chunk) sorted spill runs, bounded k-way "
    "merge, then one spanning-forest kernel call per merged batch over "
    "the union-find roots it touches",
)
def streaming_kruskal_mst(
    path: "str | Path",
    chunk: int = 262144,
    merge_block: int | None = None,
    spill_dir: "str | Path | None" = None,
) -> tuple[int, np.ndarray]:
    """Out-of-core Kruskal over a REDG1 edge file; returns ``(n, ids)``.

    An external-sort Kruskal for graphs larger than RAM: the file is
    externally sorted by the ``(weight, edge-id)`` rank key in runs of
    ``chunk`` edges (written to ``spill_dir``, a fresh temp directory by
    default), the runs are k-way merged back in exact global rank order
    holding only ``merge_block`` records per run (default: ``chunk``
    split evenly across runs, so the merge never holds more than one
    chunk of candidates), and each merged batch is solved at once: its
    minimum spanning forest over the current union-find components
    (:func:`repro.trees.boruvka_fast.spanning_forest`) is exactly the set
    a per-edge scan of the batch would take.  Once ``n - 1`` edges are
    chosen the merge stops -- unread spill data is never touched.

    The chosen ids are **bit-identical** to in-memory
    :func:`kruskal_mst` on the same ``(n, edges, weights)``, in the same
    (rank) order, for every ``chunk``/``merge_block``: ranks are unique,
    so each batch's forest is unique.  Peak memory is ``O(n + chunk)``
    regardless of ``m``.  Raises :class:`NotConnectedError` when the
    graph does not span ``n`` vertices,
    :class:`~repro.io.FormatError` /
    :class:`~repro.errors.InvalidGraphError` for malformed files.
    """
    from repro.io.edgefile import merge_runs, read_edge_header, spill_runs

    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    n, _ = read_edge_header(path)
    uf = UnionFind(n)
    chosen: list[np.ndarray] = []
    with tempfile.TemporaryDirectory(prefix="repro-spill-") if spill_dir is None else _keep_dir(
        spill_dir
    ) as sdir:
        runs = spill_runs(path, sdir, chunk)
        if merge_block is None:
            merge_block = max(1, chunk // max(1, len(runs)))
        for batch in merge_runs(runs, merge_block):
            chosen.append(
                _scan_rank_batch(
                    uf,
                    np.ascontiguousarray(batch["id"]),
                    np.ascontiguousarray(batch["u"]),
                    np.ascontiguousarray(batch["v"]),
                )
            )
            if uf.num_sets == 1:
                break
    if uf.num_sets != 1:
        raise NotConnectedError(
            f"graph has {uf.num_sets} connected components; cannot span {n} vertices"
        )
    return n, np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)


class _keep_dir:
    """Context manager handing back a caller-owned spill directory."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

    def __enter__(self) -> "Path":
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc: object) -> None:
        return None


@slab_contract(
    dtypes={"ids": "int64", "eu": "int64", "ev": "int64"},
    contiguous=("ids", "eu", "ev"),
)
def _scan_rank_batch(
    uf: UnionFind, ids: np.ndarray, eu: np.ndarray, ev: np.ndarray
) -> np.ndarray:
    """Kruskal over one rank-ordered batch; returns the ids it takes.

    The batch's minimum spanning forest over ``uf``'s components, with
    rank = batch position, in rank order; the touched roots are then
    relinked in one :meth:`~UnionFind.union_groups` write.
    """
    ru = uf.find_many(eu)
    rv = uf.find_many(ev)
    cross = ru != rv
    roots, ends = np.unique(np.concatenate([ru[cross], rv[cross]]), return_inverse=True)
    k = ends.size // 2
    picked, _, comp = spanning_forest(
        ends[:k], ends[k:], np.arange(k, dtype=np.int64), roots.size
    )
    uf.union_groups(roots, comp)
    return ids[cross][picked]


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
