"""Minimum spanning trees: the graph -> tree reduction for single linkage.

Single-linkage clustering of a weighted connected graph equals single
linkage on its MST (Gower & Ross 1969; paper Section 2.3), so the
clustering pipelines in :mod:`repro.cluster` and the real-world-input
benchmarks (Figure 8) run one of these MST routines before the dendrogram
algorithms.

The routines:

* :func:`kruskal_mst` -- Kruskal with union-find (batched when
  uninstrumented);
* :func:`prim_mst` -- Prim with a binary heap;
* :func:`scipy_mst` -- SciPy's csgraph, for cross-checking;
* :func:`streaming_kruskal_mst` -- out-of-core Kruskal over a REDG1 edge
  file: external sort into spill runs, then a k-way merge in rank order
  whose batches are solved by the spanning-forest kernel;
* Borůvka (:mod:`repro.trees.boruvka`), reached through
  :func:`minimum_spanning_tree` with ``method="boruvka"``.

Ties are broken by edge id (rank order) everywhere except SciPy, so the
others return the same tree on every input.
"""

from __future__ import annotations

import heapq
import tempfile
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree as _scipy_mst

from repro.checkers.bounds import cost_bound
from repro.checkers.contracts import slab_contract
from repro.errors import InvalidGraphError, NotConnectedError
from repro.runtime.cost_model import (
    CostTracker,
    WorkDepth,
    check_backend,
    comparison_sort_cost,
    instrumented,
)
from repro.structures.unionfind import UnionFind
from repro.trees.boruvka_fast import spanning_forest
from repro.trees.weights import ranks_of
from repro.trees.wtree import WeightedTree

__all__ = [
    "kruskal_mst",
    "prim_mst",
    "scipy_mst",
    "streaming_kruskal_mst",
    "minimum_spanning_tree",
]

#: Edges per vectorized Kruskal batch (the fast-path inner-loop grain).
_KRUSKAL_CHUNK = 4096


def _check_graph(n: int, edges: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    edges = np.asarray(edges, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if edges.ndim != 2 or (edges.size and edges.shape[1] != 2):
        raise InvalidGraphError(f"edges must have shape (m, 2), got {edges.shape}")
    if weights.shape != (edges.shape[0],):
        raise InvalidGraphError("need exactly one weight per edge")
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise InvalidGraphError(f"edge endpoints must lie in [0, {n})")
        if (edges[:, 0] == edges[:, 1]).any():
            raise InvalidGraphError("self loops are not allowed")
    if not np.isfinite(weights).all():
        raise InvalidGraphError("weights must be finite")
    return edges, weights


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
    edges, weights = _check_graph(n, edges, weights)
    ranks = ranks_of(weights)
    order = np.argsort(ranks)
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


def prim_mst(n: int, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Edge ids of the MST, by Prim's algorithm with a binary heap."""
    edges, weights = _check_graph(n, edges, weights)
    ranks = ranks_of(weights)
    # adjacency as CSR over both directions
    m = edges.shape[0]
    endpoints = edges.reshape(-1)
    order = np.argsort(endpoints, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=n), out=offsets[1:])
    nbr_vertex = endpoints[order ^ 1]
    nbr_edge = order >> 1
    in_tree = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    heap: list[tuple[int, int, int]] = []  # (rank, edge_id, far_vertex)

    def push_incident(v: int) -> None:
        for s in range(int(offsets[v]), int(offsets[v + 1])):
            w = int(nbr_vertex[s])
            if not in_tree[w]:
                e = int(nbr_edge[s])
                heapq.heappush(heap, (int(ranks[e]), e, w))

    in_tree[0] = True
    push_incident(0)
    while heap and len(chosen) < n - 1:
        _, e, w = heapq.heappop(heap)
        if in_tree[w]:
            continue
        in_tree[w] = True
        chosen.append(e)
        push_incident(w)
    if len(chosen) != n - 1:
        raise NotConnectedError(
            f"graph is not connected: reached {int(in_tree.sum())} of {n} vertices"
        )
    return np.asarray(chosen, dtype=np.int64)


def scipy_mst(n: int, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Edge ids of an MST computed by SciPy's csgraph (cross-check backend).

    SciPy breaks weight ties arbitrarily, so on tied inputs this may return
    a different (equal-weight) tree than Kruskal/Prim; dendrogram *heights*
    are identical either way.
    """
    edges, weights = _check_graph(n, edges, weights)
    # Encode edge ids so they can be recovered from the csgraph output:
    # shift weights to strictly positive values and use data = weight only;
    # match returned coordinates back to input edges via a dict.
    lookup: dict[tuple[int, int], int] = {}
    for e in range(edges.shape[0]):
        u, v = int(edges[e, 0]), int(edges[e, 1])
        key = (min(u, v), max(u, v))
        prev = lookup.get(key)
        if prev is None or weights[e] < weights[prev]:
            lookup[key] = e
    graph = coo_matrix(
        (weights - weights.min() + 1.0, (edges[:, 0], edges[:, 1])), shape=(n, n)
    )
    mst = _scipy_mst(graph).tocoo()
    if mst.nnz != n - 1:
        raise NotConnectedError(f"graph is not connected: MST has {mst.nnz} edges, need {n - 1}")
    chosen = []
    for u, v in zip(mst.row, mst.col):
        key = (min(int(u), int(v)), max(int(u), int(v)))
        chosen.append(lookup[key])
    return np.asarray(sorted(chosen), dtype=np.int64)


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
    :class:`~repro.io.FormatError` / :class:`InvalidGraphError` for
    malformed files.
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


_METHODS = {"kruskal": kruskal_mst, "prim": prim_mst, "scipy": scipy_mst}

def minimum_spanning_tree(
    n: int,
    edges: np.ndarray,
    weights: np.ndarray,
    method: str = "kruskal",
    backend: str = "auto",
) -> WeightedTree:
    """MST of a weighted graph as a :class:`WeightedTree`.

    The returned tree's edges keep their graph weights; edge ids are
    renumbered 0..n-2 in increasing original-edge-id order.  ``method``
    is one of ``"kruskal"``, ``"prim"``, ``"scipy"``, or ``"boruvka"``
    (the parallel-friendly round algorithm, see
    :mod:`repro.trees.boruvka`).  ``backend`` selects the Boruvka round
    implementation (``"reference"`` scalar loop vs the vectorized
    ``"array"``/``"auto"`` kernel); the other methods pick their fast
    path from instrumentation state and accept but ignore it.
    """
    check_backend(backend)
    edge_arr = np.asarray(edges, dtype=np.int64)
    weight_arr = np.asarray(weights, dtype=np.float64)
    if method == "boruvka":
        from repro.trees.boruvka import boruvka_mst  # mst <-> boruvka cycle

        ids = boruvka_mst(n, edge_arr, weight_arr, backend=backend)  # already sorted
    else:
        try:
            fn = _METHODS[method]
        except KeyError:
            raise ValueError(
                f"unknown MST method {method!r}; expected one of "
                f"{sorted([*_METHODS, 'boruvka'])}"
            ) from None
        ids = np.sort(fn(n, edge_arr, weight_arr))
    return WeightedTree(n, edge_arr[ids], weight_arr[ids], validate=False)
