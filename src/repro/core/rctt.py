"""RCTT: the RC-tree tracing algorithm (Section 4.2, Algorithm 6).

Three phases, timed separately to reproduce the Figure 7 breakdown:

* **Build** -- run parallel tree contraction (compress along lesser-rank
  edges) and keep only the RC-tree, no heaps, no merges.
* **Trace** -- for every edge ``e``, climb from the rcnode it is associated
  with toward the root until the first ancestor whose associated edge has
  rank greater than ``rank(e)`` (or the root); drop ``e`` in that rcnode's
  bucket.  The bucket of rcnode ``u`` is exactly the set ``S`` the heap
  filter of SLD-TreeContraction would extract at ``u``'s contraction
  (verified directly in ``tests/test_rctt_tc_correspondence.py``).
* **Sort** -- sort each bucket by rank and chain parents; the bucket's last
  node adopts ``u``'s associated edge as parent (the root bucket's last
  node is the dendrogram root).

Implementation note: the trace climbs all edges *simultaneously*, one
vectorized hop per step over the index vector of edges still climbing,
so the Python-level loop runs only ``O(rc-tree height)`` times and each
hop touches only the edges that move.  The bucket sort/chain is a single
composite-key ``argsort`` plus boundary scatter.  One implementation
serves both backends: with ``tracker=None`` nothing is charged, and with
a tracker the costs follow the paper: Build is linear work with
``O(log n)``-depth rounds, Trace charges the true climb lengths (worst
case ``O(n log n)`` work, ``O(log^2 n)`` depth), Sort charges per-bucket
comparison sorts.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.checkers.contracts import slab_contract
from repro.contraction.schedule import build_rc_tree
from repro.runtime.cost_model import (
    CostTracker,
    WorkDepth,
    combine_parallel,
    comparison_sort_cost,
)
from repro.runtime.instrumentation import span
from repro.trees.wtree import WeightedTree
from repro.util import log2ceil

__all__ = ["rctt"]


@cost_bound(
    work="n * log(n)",
    depth="log(n)**2",
    vars=("n",),
    theorem="Section 4.2, Algorithm 6: contraction build + O(n log n) "
    "worst-case trace + per-bucket sorts, all at polylog depth",
)
@slab_contract(
    dtypes={
        "tree.edges": "int64",
        "tree.ranks": "int64",
        "tree.weights": "float64",
    },
    returns="int64",
)
def rctt(
    tree: WeightedTree,
    seed: int | np.random.Generator | None = 0,
    tracker: CostTracker | None = None,
    builder: str = "fast",
    race_check: bool = False,
) -> np.ndarray:
    """Parent array of the SLD, by RC-tree tracing.

    ``builder`` selects the contraction implementation: ``"fast"``
    (vectorized accumulator-based rounds, the default) or ``"reference"``
    (the adjacency-list scheduler whose cost profile mirrors the paper's
    implementation -- used by the Figure 7 breakdown experiment).  Both
    produce the identical schedule for the same seed.

    ``race_check=True`` runs the contraction commit rounds under the
    shadow round-race detector; only the ``"reference"`` builder carries
    per-event commits, so the flag forces that builder.
    """
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m == 0:
        return parents
    edge_ranks = tree.ranks

    with span("build"):
        if race_check:
            # The vectorized builder has no per-event commit loop to
            # instrument; the reference builder yields the same schedule.
            builder = "reference"
        if builder == "fast":
            from repro.contraction.fast import build_rc_tree_fast

            rct = build_rc_tree_fast(tree, seed=seed, tracker=tracker)
        elif builder == "reference":
            rct = build_rc_tree(tree, seed=seed, tracker=tracker, race_check=race_check)
        else:
            raise ValueError(
                f"unknown builder {builder!r}; expected 'fast' or 'reference'"
            )

    with span("trace"):
        rc_parent = rct.parent
        rc_edge = rct.edge
        root = rct.root
        # rank of the edge associated with each rcnode (root: +inf sentinel)
        node_rank = np.full(rct.n, np.iinfo(np.int64).max, dtype=np.int64)
        non_root = rc_edge >= 0
        node_rank[non_root] = edge_ranks[rc_edge[non_root]]

        # All edges climb simultaneously; each step is one vectorized hop
        # over the edges still climbing.
        u = rc_parent[rct.vertex_of_edge()]
        idx = np.flatnonzero((u != root) & (node_rank[u] < edge_ranks))
        total_steps = m
        max_steps = 1
        # O(rc-tree height) = O(log n) whp vectorized hops; the true climb
        # lengths are charged to the tracker below.
        while idx.size:  # noqa: RPR102
            hop = rc_parent[u[idx]]
            u[idx] = hop
            total_steps += idx.size
            max_steps += 1
            idx = idx[(hop != root) & (node_rank[hop] < edge_ranks[idx])]
        if tracker is not None:
            tracker.add(WorkDepth(float(total_steps), float(max_steps) + log2ceil(m)))

    with span("sort"):
        # One argsort = all per-bucket rank sorts at once: bucket (final
        # rcnode) major, rank minor.  Ranks are unique, so the composite
        # key is unique and the default (unstable) sort gives that order.
        order = np.argsort(u * m + edge_ranks)
        bucket_of = u[order]
        same_bucket = bucket_of[1:] == bucket_of[:-1]
        # chain within runs
        parents[order[:-1][same_bucket]] = order[1:][same_bucket]
        # run tails attach to the bucket rcnode's own edge (root: self)
        tail_pos = np.flatnonzero(~np.r_[same_bucket, False])
        tails = order[tail_pos]
        tail_buckets = bucket_of[tail_pos]
        at_root = tail_buckets == root
        parents[tails[at_root]] = tails[at_root]
        parents[tails[~at_root]] = rc_edge[tail_buckets[~at_root]]
        if tracker is not None:
            _, bucket_sizes = np.unique(u, return_counts=True)
            sort_costs = [comparison_sort_cost(int(s)) for s in bucket_sizes]
            tracker.add(combine_parallel(sort_costs))
    return parents
