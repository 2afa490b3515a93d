"""The array spanning-forest kernel behind Boruvka and streaming Kruskal.

GBBS-style filter/contract rounds (PAPERS.md: "Theoretically Efficient
Parallel Graph Algorithms Can Be Fast and Scalable") over flat slabs.
Each round runs three vectorized phases and no per-edge Python work:

1. **Selection** -- a segmented min of ``rank`` over both endpoints
   (``np.minimum.at``, numpy's priority write) gives every label its
   min-rank incident edge; edge ``i`` is selected by ``cu[i]`` where
   ``rank[i] == best[cu[i]]``, and likewise by ``cv[i]``.
2. **Star contraction** -- the selected edges form a functional graph
   ``parent[c] = partner(c)`` over labels whose only cycles are mutual
   selections (two labels picking the *same* edge, see below); breaking
   each 2-cycle toward the smaller label leaves a forest that pointer
   doubling collapses to roots in ``O(log)`` gathers.
3. **Filter + dense relabel** -- intra-component edges drop out, and the
   surviving roots are renumbered ``0..c-1`` by a prefix sum, so every
   per-round slab is sized by the surviving components and live edges.

Bit-identity with the reference rounds
(:func:`repro.trees.boruvka._boruvka_loop`) and the sequential Kruskal
scan: ranks are unique, so each label's min-rank incident edge is
unique, every ``parent[c]`` is written exactly once (no duplicate-index
store is relied on), and a selection cycle longer than 2 is impossible
-- along any directed cycle of labels the selected-edge rank would have
to strictly decrease.  The only repeats are mutual selections, and
mutuality forces the *same* edge (each side's minimum bounds the other).
Every selected edge therefore merges two distinct components, and the
result is the unique minimum spanning forest -- the edge set Kruskal's
rank-order scan picks.  Chosen ids and round counts match the reference
exactly.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.checkers.contracts import slab_contract

__all__ = ["spanning_forest"]

_NO_EDGE = np.iinfo(np.int64).max


@cost_bound(
    work="m * log(n)",
    depth="log(n)**2",
    vars=("m", "n"),
    kind="helper",
    theorem="O(log n) Boruvka rounds; each round is one segmented min "
    "(np.minimum.at) over the surviving edges plus O(log) pointer-doubling "
    "gathers",
)
@slab_contract(
    dtypes={"cu": "int64", "cv": "int64", "rank": "int64"},
    contiguous=("cu", "cv", "rank"),
)
def spanning_forest(
    cu: np.ndarray, cv: np.ndarray, rank: np.ndarray, dom: int
) -> tuple[np.ndarray, int, np.ndarray]:
    """Minimum spanning forest of the multigraph ``cu[i] -- cv[i]``.

    Endpoints are labels in ``[0, dom)`` (``cu[i] != cv[i]``); ``rank``
    holds unique edge ranks.  Returns ``(picked, rounds, comp)``: the
    sorted positions of the forest edges, the number of selection rounds
    (the reference Boruvka round count), and each label's final component
    as a dense id in ``[0, dom - picked.size)``.
    """
    pos = np.arange(cu.size, dtype=np.int64)
    comp = np.arange(dom, dtype=np.int64)
    picked = [np.empty(0, dtype=np.int64)]
    rounds = 0
    while pos.size:  # noqa: RPR102 -- O(log n) rounds: every live label merges
        rounds += 1
        # 1. Selection: each label's min-rank incident edge.
        best = np.full(dom, _NO_EDGE, dtype=np.int64)
        np.minimum.at(best, cu, rank)
        np.minimum.at(best, cv, rank)
        by_u = rank == best[cu]
        by_v = rank == best[cv]
        picked.append(pos[by_u | by_v])
        # 2. Star contraction; mutual selections keep the smaller label.
        ident = np.arange(dom, dtype=np.int64)
        parent = ident.copy()
        parent[cu[by_u]] = cv[by_u]
        parent[cv[by_v]] = cu[by_v]
        both = by_u & by_v
        low = np.minimum(cu[both], cv[both])
        parent[low] = low
        while True:  # noqa: RPR102 -- pointer doubling, O(log) gathers
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
        # 3. Dense relabel of the surviving roots, then filter.
        label = np.cumsum(parent == ident) - 1
        dom = int(label[-1]) + 1
        parent = label[parent]  # old label -> dense surviving root
        comp = parent[comp]
        cu = parent[cu]
        cv = parent[cv]
        live = cu != cv
        # One slab at a time, so each old slab is freed before the next copy.
        pos = pos[live]
        cu = cu[live]
        cv = cv[live]
        rank = rank[live]
    return np.sort(np.concatenate(picked)), rounds, comp
