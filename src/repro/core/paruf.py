"""ParUF: the activation-based bottom-up algorithm (Section 4.1, Alg. 5).

Every edge that is a *local minimum* -- minimum rank among all edges
incident to the clusters of its endpoints -- can be merged safely
(Lemma 4.1), and the parent of a merged edge is the new minimum-rank edge
incident to the merged cluster (Lemma 4.2).  Each cluster keeps its
incident edges in a meldable *neighbor-heap*; an edge's ``status`` counts
at how many of its two endpoint heaps it currently sits on top (2 = ready,
the paper's CAS-guarded activation condition).

Concurrency simulation.  The paper's implementation is asynchronous: each
thread that merges an edge follows the activation chain upward while other
ready edges are claimed by other threads.  Here the scheduler is an
explicit worklist of ready edges, processed **one activation step at a
time** -- a thread's chain continuation is pushed back instead of being
followed to completion.  Any pop order is a legal linearization of the
asynchronous execution (the tests shuffle it); the default FIFO order is
the fair schedule, so the worklist length faithfully tracks the instantaneous
ready count.  That matters for two reproduced behaviours:

* the **post-processing optimization**: when the ready count drops to 1 it
  can never grow again (a merge retires one ready edge and activates at
  most one -- the merged heap's single new top), so the remaining edges
  merge in globally sorted rank order and can be finished with one sort;
* the **low-par pathology** (Table 1): on the adversarial path the ready
  count sits at 2 for almost the whole run, the optimization never fires,
  and the activation chains are Theta(n) deep.

Work/depth accounting follows Theorem 4.3: each processed edge charges its
true union-find and heap-operation costs; depth is the greedy schedule's
sum over activation rounds of the round's maximum per-edge cost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.errors import AlgorithmError
from repro.runtime.cost_model import CostTracker, WorkDepth, comparison_sort_cost, log_cost
from repro.runtime.instrumentation import span
from repro.structures import make_heap
from repro.structures.unionfind import UnionFind
from repro.trees.wtree import WeightedTree
from repro.util import check_random_state, log2ceil

__all__ = ["paruf", "ParUFStats"]

_ORDERS = ("fifo", "lifo", "random")


@dataclass
class ParUFStats:
    """Execution statistics of one ParUF run (feeds Fig. 7 and ablations)."""

    processed_async: int = 0
    postprocessed: int = 0
    max_round: int = 0
    initial_ready: int = 0
    heap_kind: str = "pairing"
    used_postprocess: bool = False
    round_max_cost: dict[int, float] = field(default_factory=dict)


@cost_bound(
    work="n * log(n)",
    depth="n * log(n)",
    vars=("n",),
    theorem="Theorem 4.3: O(n log n) work; depth is schedule-dependent "
    "(Theta(n) activation chains on the adversarial path, Section 4.1)",
)
def paruf(
    tree: WeightedTree,
    heap_kind: str = "pairing",
    postprocess: bool = True,
    order: str = "fifo",
    seed: int | np.random.Generator | None = None,
    tracker: CostTracker | None = None,
    stats: ParUFStats | None = None,
) -> np.ndarray:
    """Parent array of the SLD, by the activation-based ParUF algorithm.

    Parameters
    ----------
    heap_kind:
        Neighbor-heap implementation (``pairing``/``binomial``/``skew``) --
        the ablation axis of ``benchmarks/test_ablation.py``.
    postprocess:
        Enable the ready-count-1 sort optimization (paper Section 4.1).
    order:
        Worklist schedule: ``fifo`` (fair, default), ``lifo`` (depth-first
        chains), or ``random`` (adversarial linearization for tests).
    """
    if order not in _ORDERS:
        raise AlgorithmError(f"unknown worklist order {order!r}; expected one of {_ORDERS}")
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m == 0:
        return parents
    stats = stats if stats is not None else ParUFStats()
    stats.heap_kind = heap_kind
    rng = check_random_state(seed)
    ranks = tree.ranks

    # ---- Preprocess: neighbor heaps + initial local minima -----------------
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
        ready = [int(e) for e in np.flatnonzero(status == 2)]
        stats.initial_ready = len(ready)
        if tracker is not None:
            # Rank computation (parallel sort) + neighbor-heap init.  Heaps
            # are meldable, so a vertex's heap builds by a pairwise-meld
            # reduction: O(deg) work and O(log^2 deg) depth per vertex (the
            # paper's O(Delta log Delta) sequential-init depth bound is
            # pessimistic; its own Table 1 star-perm speedups require the
            # parallel build, which is what we charge).
            tracker.add(comparison_sort_cost(m))
            max_deg = int(np.diff(offsets).max()) if tree.n else 1
            tracker.add(WorkDepth(float(2 * m), log_cost(max_deg) ** 2))

    # ---- Async: interleaved activation chains ------------------------------
    round_hint = np.zeros(m, dtype=np.int64)
    for e in ready:
        round_hint[e] = 1
    worklist: deque[int] = deque(ready)
    uf = UnionFind(tree.n)
    edges = tree.edges
    round_max_cost = stats.round_max_cost
    remaining_after_async: list[int] | None = None

    with span("async"):
        while worklist:
            if order == "fifo":
                cur = worklist.popleft()
            elif order == "lifo":
                cur = worklist.pop()
            else:
                idx = int(rng.integers(len(worklist)))
                worklist.rotate(-idx)
                cur = worklist.popleft()
            # CAS(status, 2, -1): in this linearization the pop owner always
            # wins; stale entries cannot exist (each edge reaches status 2
            # exactly once).
            assert status[cur] == 2, "worklist invariant violated"
            status[cur] = -1
            if postprocess and not worklist:
                # Ready count is exactly 1; it can never grow again, so the
                # remaining merges happen in sorted rank order.
                remaining_after_async = [cur] + [
                    int(e) for e in np.flatnonzero(status != -1)
                ]
                stats.used_postprocess = True
                break
            u, v = int(edges[cur, 0]), int(edges[cur, 1])
            ru, rv = uf.find(u), uf.find(v)
            find_steps_before = uf.find_steps
            cost = 0.0
            cost += log_cost(len(heaps[ru]))
            heaps[ru].delete_min()
            cost += log_cost(len(heaps[rv]))
            heaps[rv].delete_min()
            w = uf.union(ru, rv)
            other = rv if w == ru else ru
            heaps[w].meld(heaps[other])
            cost += log_cost(max(len(heaps[w]), 2))
            cost += float(uf.find_steps - find_steps_before) + 1.0
            my_round = int(round_hint[cur])
            stats.processed_async += 1
            if my_round > stats.max_round:
                stats.max_round = my_round
            if tracker is not None:
                prev = round_max_cost.get(my_round, 0.0)
                if cost > prev:
                    round_max_cost[my_round] = cost
                tracker.add(WorkDepth(cost, 0.0))  # depth added per-round below
            if heaps[w].is_empty:
                # cur was the last edge: it is the dendrogram root.
                continue
            _, new_cur = heaps[w].find_min()
            new_cur = int(new_cur)
            parents[cur] = new_cur
            status[new_cur] += 1
            nr = my_round + 1
            if nr > round_hint[new_cur]:
                round_hint[new_cur] = nr
            if status[new_cur] == 2:
                worklist.append(new_cur)
        if tracker is not None and round_max_cost:
            # Greedy-schedule depth: one synchronous level per activation
            # round, plus binary-forking spawn overhead over the initial
            # parallel-for (Alg. 5 line 5).
            depth = sum(round_max_cost.values()) + log2ceil(max(m, 1))
            tracker.add(WorkDepth(0.0, depth))

    # ---- Postprocess: sort the single remaining chain ----------------------
    with span("postprocess"):
        if remaining_after_async is not None:
            rem = np.asarray(remaining_after_async, dtype=np.int64)
            rem = rem[np.argsort(ranks[rem], kind="stable")]
            stats.postprocessed = int(rem.size)
            if rem.size:
                parents[rem[:-1]] = rem[1:]
                parents[rem[-1]] = rem[-1]
            if tracker is not None:
                tracker.add(comparison_sort_cost(int(rem.size)))
    return parents
