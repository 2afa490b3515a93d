"""Round-synchronous ParUF (the nearest-neighbor-chain style contrast).

Section 4.1 notes the "striking difference" of the paper's ParUF from
other nearest-neighbor-chain implementations: ParUF is *asynchronous*
while the others "run in synchronized rounds".  This module implements
that synchronized-rounds variant as a comparison point: each round merges
every currently-ready (local-minimum) edge, then a barrier computes the
next ready set.

Correctness follows from the same Lemma 4.1 argument -- distinct ready
edges always belong to disjoint cluster pairs (a cluster's heap has one
top), so a round's merges commute.  The difference is purely scheduling:
a synchronous round pays a barrier (charged ``O(log n)`` depth) even when
only one edge is ready, which is exactly the overhead the asynchronous
design avoids.

Each round's merges are executed as independent tasks on a
:class:`~repro.runtime.scheduler.Scheduler`: the per-edge task claims its
edge, performs the two ``delete_min``s, the union and the meld, and
returns the activation it discovered; the sequential *commit phase*
between rounds then applies the activations (``status`` increments and
``parents`` writes) and builds the next frontier.  With
``race_check=True`` the scheduler intersects the tasks' shadow access
sets after every round, machine-checking the Lemma 4.1 disjointness claim
-- and with ``shuffle=True`` the round's execution order is permuted,
which by that same claim cannot change the result.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.checkers import access as _access
from repro.checkers.bounds import cost_bound
from repro.checkers.ownership import owns
from repro.core.paruf import ParUFStats
from repro.runtime.cost_model import CostTracker, WorkDepth, comparison_sort_cost, log_cost
from repro.runtime.instrumentation import span
from repro.runtime.scheduler import Scheduler
from repro.structures import make_heap
from repro.structures.unionfind import UnionFind
from repro.trees.wtree import WeightedTree
from repro.util import log2ceil

__all__ = ["paruf_sync"]


@cost_bound(
    work="n * log(n)",
    depth="n * log(n)",
    vars=("n",),
    theorem="Section 4.1 synchronized-rounds contrast: ParUF work plus an "
    "O(log n) barrier per round (Theta(n) rounds on the adversarial path)",
)
def paruf_sync(
    tree: WeightedTree,
    heap_kind: str = "pairing",
    postprocess: bool = True,
    tracker: CostTracker | None = None,
    stats: ParUFStats | None = None,
    race_check: bool = False,
    shuffle: bool = False,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Parent array of the SLD, by round-synchronous local-minima merging.

    Parameters
    ----------
    race_check:
        Run every round under the shadow round-race detector; conflicting
        task accesses raise :class:`~repro.errors.RaceConditionError`.
    shuffle / seed:
        Permute each round's task execution order (seeded).  Legal by
        Lemma 4.1; combined with ``race_check`` this machine-checks the
        order-insensitivity claim.
    """
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m == 0:
        return parents
    stats = stats if stats is not None else ParUFStats()
    stats.heap_kind = heap_kind
    ranks = tree.ranks

    with span("preprocess"):
        offsets, _, nbr_edge = tree.adjacency()
        heaps = []
        for v in range(tree.n):
            heap = make_heap(heap_kind)
            for s in range(int(offsets[v]), int(offsets[v + 1])):
                e = int(nbr_edge[s])
                heap.insert(int(ranks[e]), e)
            heaps.append(heap)
        status = np.zeros(m, dtype=np.int64)
        for v in range(tree.n):
            if not heaps[v].is_empty:
                _, e = heaps[v].find_min()
                status[e] += 1
        frontier = [int(e) for e in np.flatnonzero(status == 2)]
        stats.initial_ready = len(frontier)
        if tracker is not None:
            tracker.add(comparison_sort_cost(m))
            max_deg = int(np.diff(offsets).max()) if tree.n else 1
            tracker.add(WorkDepth(float(2 * m), log_cost(max_deg) ** 2))

    uf = UnionFind(tree.n)
    edges = tree.edges
    remaining: list[int] | None = None
    rounds = 0
    # The scheduler carries the round-race recorder and the (seeded)
    # shuffle; cost charging stays with the explicit per-round formula
    # below, which matches the paper's barrier accounting.
    sched = Scheduler(shuffle=shuffle, seed=seed, race_check=race_check)

    def make_task(
        cur: int,
    ) -> Callable[[], tuple[tuple[int, int, float], WorkDepth]]:
        # The claiming task owns exactly its edge's status cell; distinct
        # ready edges have distinct cells (Lemma 4.1), so the declared
        # windows of one round are pairwise disjoint.
        @owns("status[cur:cur+1]")
        def task() -> tuple[tuple[int, int, float], WorkDepth]:
            # CAS(status[cur], 2, -1): the claiming task owns the edge.
            _access.record_write("status", cur)
            status[cur] = -1
            u, v = int(edges[cur, 0]), int(edges[cur, 1])
            ru, rv = uf.find(u), uf.find(v)
            cost = log_cost(len(heaps[ru])) + log_cost(len(heaps[rv]))
            heaps[ru].delete_min()
            heaps[rv].delete_min()
            w = uf.union(ru, rv)
            other = rv if w == ru else ru
            heaps[w].meld(heaps[other])
            cost += log_cost(max(len(heaps[w]), 2)) + 1.0
            if heaps[w].is_empty:
                # cur was the last edge: it is the dendrogram root.
                return (cur, -1, cost), WorkDepth(cost, cost)
            _, new_cur = heaps[w].find_min()
            return (cur, int(new_cur), cost), WorkDepth(cost, cost)

        return task

    with span("rounds"):
        while frontier:
            rounds += 1
            if postprocess and len(frontier) == 1:
                status[frontier[0]] = -1
                remaining = [frontier[0]] + [
                    int(e) for e in np.flatnonzero(status != -1)
                ]
                stats.used_postprocess = True
                break
            results = sched.run_round(
                [make_task(cur) for cur in frontier], where=f"merge round {rounds}"
            )
            # Commit phase (sequential barrier): apply the activations the
            # round's merges discovered and build the next frontier.
            next_frontier: list[int] = []
            round_work = 0.0
            round_max = 0.0
            for cur, new_cur, cost in results:
                stats.processed_async += 1
                round_work += cost
                if cost > round_max:
                    round_max = cost
                if new_cur < 0:
                    continue
                parents[cur] = new_cur
                status[new_cur] += 1
                if status[new_cur] == 2:
                    next_frontier.append(new_cur)
            if tracker is not None:
                # Synchronous barrier: every round pays spawn + sync depth
                # even when nearly empty -- the overhead Alg. 5 avoids.
                tracker.add(WorkDepth(round_work, round_max + log2ceil(max(m, 2))))
            frontier = next_frontier
        stats.max_round = rounds

    with span("postprocess"):
        if remaining is not None:
            rem = np.asarray(remaining, dtype=np.int64)
            rem = rem[np.argsort(ranks[rem], kind="stable")]
            stats.postprocessed = int(rem.size)
            if rem.size:
                parents[rem[:-1]] = rem[1:]
                parents[rem[-1]] = rem[-1]
            if tracker is not None:
                tracker.add(comparison_sort_cost(int(rem.size)))
    return parents
