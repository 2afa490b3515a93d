# noqa-module: RPR102 -- the drivers below declare polylog depth for the
# parallel algorithms they replay, but run as tight sequential host loops
# over flat arrays; per-line waivers would mark every loop in the file.
"""Flat-array fast backends for SLD-TreeContraction and RCTT.

Two wall-clock twins of the Section 3.2 / Section 4.2 algorithms:

* :func:`tree_contraction_fast` -- replaces both halves of the reference
  ``mode="heap"`` pipeline: the contraction schedule comes from the
  vectorized builder (``repro.contraction.fast``, no per-event Python
  objects), and the merge loop walks the contracted vertices straight out
  of the RC-tree arrays in contraction-round order, keeping one
  :class:`~repro.structures.heap_pool.HeapPool` heap handle per live
  cluster.  Per contracted vertex the driver performs exactly the
  reference steps -- ``filter_and_insert`` at the associated edge's rank,
  chain the sorted filtered set under the edge, meld into the target --
  so the output is bit-identical (the SLD is unique under the rank
  order, and Lemma 3.3 makes every within-round processing order valid).
* :func:`rctt_fast` -- RCTT with a compacted trace (the climb iterates
  over an index vector of still-active edges instead of re-masking all
  ``m`` every hop) and a single composite-key ``argsort`` for the bucket
  sort (``bucket * m + rank`` is unique, so the default unstable sort
  replaces the two-key lexsort).

Both twins delegate to their reference implementations whenever
instrumentation is active (a tracker, a shadow-access recorder, or a
diagnostic hook like ``protected_log``/``race_check``): the array
backends are wall-clock backends, and the reference twins own the
work/depth accounting.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.checkers.contracts import slab_contract
from repro.core.rctt import rctt
from repro.core.tree_contraction_sld import sld_tree_contraction
from repro.runtime.cost_model import CostTracker, instrumented
from repro.structures.heap_pool import HeapPool
from repro.trees.wtree import WeightedTree

__all__ = ["tree_contraction_fast", "rctt_fast"]


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


@cost_bound(
    work="n * log(n)",
    depth="log(n)**2",
    vars=("n",),
    theorem="Section 4.2, Algorithm 6: compacted-index trace + "
    "composite-key bucket sort",
)
@slab_contract(
    dtypes={
        "tree.edges": "int64",
        "tree.ranks": "int64",
        "tree.weights": "float64",
    },
    returns="int64",
)
def rctt_fast(
    tree: WeightedTree,
    seed: int | np.random.Generator | None = 0,
    tracker: CostTracker | None = None,
    race_check: bool = False,
) -> np.ndarray:
    """Parent array of the SLD, by RC-tree tracing over compacted indices.

    Bit-identical to :func:`repro.core.rctt.rctt` for the same seed.
    """
    if instrumented(tracker) or race_check:
        return rctt(tree, seed=seed, tracker=tracker, race_check=race_check)
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m == 0:
        return parents
    edge_ranks = tree.ranks

    from repro.contraction.fast import build_rc_tree_fast

    rct = build_rc_tree_fast(tree, seed=seed, record_events=False)

    rc_parent = rct.parent
    rc_edge = rct.edge
    root = rct.root
    node_rank = np.full(rct.n, np.iinfo(np.int64).max, dtype=np.int64)
    non_root = rc_edge >= 0
    node_rank[non_root] = edge_ranks[rc_edge[non_root]]
    # Vectorized inverse association (edge id -> contracted vertex).
    voe = np.empty(m, dtype=np.int64)
    voe[rc_edge[non_root]] = np.flatnonzero(non_root)
    u = rc_parent[voe]
    idx = np.flatnonzero((u != root) & (node_rank[u] < edge_ranks))
    while idx.size:
        hop = rc_parent[u[idx]]
        u[idx] = hop
        still = (hop != root) & (node_rank[hop] < edge_ranks[idx])
        idx = idx[still]

    # bucket-major, rank-minor; ranks are unique so the composite key
    # is unique and the default (unstable) sort gives the lexsort order.
    order = np.argsort(u * m + edge_ranks)
    bucket_of = u[order]
    same_bucket = bucket_of[1:] == bucket_of[:-1]
    parents[order[:-1][same_bucket]] = order[1:][same_bucket]
    tail_pos = np.flatnonzero(~np.r_[same_bucket, False])
    tails = order[tail_pos]
    tail_buckets = bucket_of[tail_pos]
    at_root = tail_buckets == root
    parents[tails[at_root]] = tails[at_root]
    parents[tails[~at_root]] = rc_edge[tail_buckets[~at_root]]
    return parents
