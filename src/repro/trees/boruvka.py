"""Boruvka's MST algorithm (the classic parallel-friendly MST).

The paper's pipelines reduce graphs to trees via an MST (Section 2.3);
Kruskal and Prim (in :mod:`repro.trees.mst`) are inherently sequential,
while Boruvka proceeds in ``O(log n)`` rounds -- in each round every
component selects its minimum-rank incident edge and components merge
along the selected edges.  This is the MST algorithm a parallel SLD
pipeline would actually pair with, so it is instrumented with the same
work/depth charges as the dendrogram algorithms.

Ties are broken by edge id (rank order), which also guarantees the
selected edge set is acyclic without needing the usual
symmetry-breaking tricks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotConnectedError
from repro.runtime.cost_model import CostTracker, WorkDepth, check_backend, instrumented
from repro.structures.unionfind import UnionFind
from repro.trees.boruvka_fast import boruvka_select_contract
from repro.trees.mst import _check_graph
from repro.trees.weights import ranks_of
from repro.trees.wtree import WeightedTree
from repro.util import log2ceil

__all__ = ["boruvka_mst", "boruvka_rounds", "boruvka_tree"]


def boruvka_mst(
    n: int,
    edges: np.ndarray,
    weights: np.ndarray,
    tracker: CostTracker | None = None,
    backend: str = "auto",
) -> np.ndarray:
    """Edge ids of the MST, by Boruvka's algorithm."""
    ids, _ = boruvka_rounds(n, edges, weights, tracker=tracker, backend=backend)
    return ids


def boruvka_rounds(
    n: int,
    edges: np.ndarray,
    weights: np.ndarray,
    tracker: CostTracker | None = None,
    backend: str = "auto",
) -> tuple[np.ndarray, int]:
    """As :func:`boruvka_mst`, additionally returning the round count.

    ``backend`` selects the round-loop implementation: ``"reference"``
    forces the instrumented per-edge loop, ``"array"``/``"auto"`` run the
    fully vectorized filter/contract kernel
    (:func:`repro.trees.boruvka_fast.boruvka_select_contract`) whenever
    instrumentation is inactive and delegate to the reference otherwise
    (the fast-twin convention, so cost accounting is never lost).  All
    backends select identical edges in identical rounds: ranks are a
    permutation, so min-edge selection has no ties.
    """
    check_backend(backend)
    edges, weights = _check_graph(n, edges, weights)
    ranks = ranks_of(weights)
    if backend == "reference" or instrumented(tracker):
        uf = UnionFind(n)
        chosen, rounds = _boruvka_loop(uf, edges, ranks, n, tracker)
        chosen_arr = np.asarray(sorted(chosen), dtype=np.int64)
        num_sets = uf.num_sets
    else:
        chosen_arr, rounds, num_sets = boruvka_select_contract(n, edges, ranks)
    if num_sets > 1:
        raise NotConnectedError(
            f"graph has {num_sets} connected components; cannot span {n} vertices"
        )
    return chosen_arr, rounds


def _boruvka_loop(
    uf: UnionFind,
    edges: np.ndarray,
    ranks: np.ndarray,
    n: int,
    tracker: CostTracker | None,
) -> tuple[list[int], int]:
    """The per-edge round loop (instrumented/recorded path)."""
    chosen: list[int] = []
    alive = np.arange(edges.shape[0], dtype=np.int64)
    rounds = 0
    while uf.num_sets > 1:
        rounds += 1
        # Drop intra-component edges (vectorized roots via repeated finds).
        roots_u = np.fromiter(
            (uf.find(int(u)) for u in edges[alive, 0]), dtype=np.int64, count=alive.size
        )
        roots_v = np.fromiter(
            (uf.find(int(v)) for v in edges[alive, 1]), dtype=np.int64, count=alive.size
        )
        cross = roots_u != roots_v
        alive = alive[cross]
        roots_u = roots_u[cross]
        roots_v = roots_v[cross]
        if alive.size == 0:
            break
        # Every component selects its min-rank incident edge.
        best: dict[int, int] = {}
        for e, ru, rv in zip(alive, roots_u, roots_v):
            re = int(ranks[e])
            for r in (int(ru), int(rv)):
                cur = best.get(r)
                if cur is None or re < ranks[cur]:
                    best[r] = int(e)
        # Merge along selected edges (rank tie-breaking makes this acyclic).
        added = 0
        for e in sorted(set(best.values()), key=lambda e: int(ranks[e])):
            u, v = int(edges[e, 0]), int(edges[e, 1])
            if uf.find(u) != uf.find(v):
                uf.union(u, v)
                chosen.append(e)
                added += 1
        if tracker is not None:
            tracker.add(WorkDepth(float(alive.size), float(log2ceil(n) + 1)))
        if added == 0:
            break
    return chosen, rounds


def boruvka_tree(
    n: int,
    edges: np.ndarray,
    weights: np.ndarray,
    tracker: CostTracker | None = None,
    backend: str = "auto",
) -> WeightedTree:
    """Boruvka MST packaged as a :class:`~repro.trees.wtree.WeightedTree`."""
    edge_arr = np.asarray(edges, dtype=np.int64)
    weight_arr = np.asarray(weights, dtype=np.float64)
    ids = boruvka_mst(n, edge_arr, weight_arr, tracker=tracker, backend=backend)
    return WeightedTree(n, edge_arr[ids], weight_arr[ids], validate=False)
