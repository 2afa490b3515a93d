# noqa-module: RPR102 -- the driver below declares polylog depth for the
# parallel algorithm it replays, but runs as a tight sequential host loop
# over flat arrays; per-line waivers would mark every loop in the file.
"""Flat-array fast backend for SLD-TreeContraction.

:func:`tree_contraction_fast` is the wall-clock twin of the Section 3.2
algorithm.  It replaces both halves of the reference ``mode="heap"``
pipeline: the contraction schedule comes from the vectorized builder
(``repro.contraction.fast``, no per-event Python objects), and the merge
loop walks the contracted vertices straight out of the RC-tree arrays in
contraction-round order, keeping one
:class:`~repro.structures.heap_pool.HeapPool` heap handle per live
cluster.  Per contracted vertex the driver performs exactly the reference
steps -- ``filter_and_insert`` at the associated edge's rank, chain the
sorted filtered set under the edge, meld into the target -- so the output
is bit-identical (the SLD is unique under the rank order, and Lemma 3.3
makes every within-round processing order valid).

The twin delegates to the reference implementation whenever
instrumentation is active (a tracker, a shadow-access recorder, or the
``protected_log`` diagnostic hook): the array backend is a wall-clock
backend, and the reference owns the work/depth accounting.  RCTT needs
no twin here: :func:`repro.core.rctt.rctt` is array-native and serves
both backends.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.checkers.contracts import slab_contract
from repro.core.tree_contraction_sld import sld_tree_contraction
from repro.runtime.cost_model import CostTracker, instrumented
from repro.structures.heap_pool import HeapPool
from repro.trees.wtree import WeightedTree

__all__ = ["tree_contraction_fast"]


@cost_bound(
    work="n * log(h)",
    depth="(log(n) * log(h))**2",
    vars=("n", "h"),
    theorem="Theorem 3.7, array-driven: the heap-mode merge replayed from "
    "the RC-tree arrays with pooled heaps",
)
@slab_contract(
    dtypes={
        "tree.edges": "int64",
        "tree.ranks": "int64",
        "tree.weights": "float64",
    },
    returns="int64",
)
def tree_contraction_fast(
    tree: WeightedTree,
    seed: int | np.random.Generator | None = 0,
    tracker: CostTracker | None = None,
    protected_log: dict | None = None,
    pool_cls: type[HeapPool] = HeapPool,
) -> np.ndarray:
    """Parent array of the SLD, by pooled-heap tree contraction.

    Bit-identical to ``sld_tree_contraction(tree, mode="heap", ...)``.
    ``pool_cls`` is a test seam (the fuzz selftest injects a sabotaged
    pool through it); production callers never pass it.
    """
    if instrumented(tracker) or protected_log is not None:
        return sld_tree_contraction(
            tree, mode="heap", seed=seed, tracker=tracker, protected_log=protected_log
        )
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m == 0:
        return parents
    from repro.contraction.fast import build_rc_tree_fast

    rct = build_rc_tree_fast(tree, seed=seed, record_events=False)

    # Contracted vertices in round order.  All events targeting a
    # vertex precede its own contraction (targets survive their event's
    # round), and events within one round touch disjoint spines, so a
    # flat round-ordered walk with immediate melds replays the
    # reference's per-round grouped schedule exactly.
    rc_edge = rct.edge
    contracted = np.flatnonzero(rc_edge >= 0)
    by_round = contracted[np.argsort(rct.round_of[contracted], kind="stable")]
    # The merge walk is scalar by design: per contracted vertex it does
    # O(log)-ish pool work keyed by Python ints, so the walk unboxes the
    # round-ordered columns once instead of per access.
    vl = by_round.tolist()  # noqa: RPR205 -- scalar merge walk by design
    ul = rct.parent[by_round].tolist()  # noqa: RPR205 -- scalar merge walk
    el = rc_edge[by_round].tolist()  # noqa: RPR205 -- scalar merge walk
    kl = tree.ranks[rc_edge[by_round]].tolist()  # noqa: RPR205 -- scalar merge walk
    pool = pool_cls(m)
    spine = [-1] * rct.n
    out = parents.tolist()  # noqa: RPR205 -- scalar merge walk by design
    filter_and_insert = pool.filter_and_insert
    meld = pool.meld
    for v, u, e, k in zip(vl, ul, el, kl):
        h, removed = filter_and_insert(spine[v], k, e)
        spine[v] = -1
        if removed:
            # Protected nodes (Claims 3.8/3.9): sorted chain under e.
            removed.sort()
            prev = -1
            for _, a in removed:
                if prev != -1:
                    out[prev] = a
                prev = a
            out[prev] = e
        spine[u] = meld(spine[u], h)

    leftover = pool.items(spine[rct.root])
    if leftover:
        leftover.sort()
        ids = [a for _, a in leftover]
        for a, b in zip(ids, ids[1:]):
            out[a] = b
        out[ids[-1]] = ids[-1]
    return np.asarray(out, dtype=np.int64)
