"""SLD-Merge and the divide-and-conquer framework (Section 3.1).

``merge_spines`` is the paper's Algorithm 1 realized on the linked-list
(parent-array) representation: given the SLDs of two trees that share
exactly one vertex ``v`` and no edges, only the *characteristic spines* --
the spines of the minimum-rank edges incident to ``v`` on each side -- can
change (Lemma 3.4); merging them as sorted lists produces the SLD of the
union (Theorem 3.5).

``sld_divide_and_conquer`` is a direct instantiation of the framework:
split the tree at an (edge-)centroid vertex into two edge-disjoint subtrees
sharing only that vertex, recurse, and merge the characteristic spines.
With balanced splits the recursion has ``O(log n)`` levels and each level's
merges cost ``O(h)`` each -- not the optimal bound (that is what tree
contraction is for) but a faithful, independently-useful realization of the
merge framework, inspired by the Cartesian-tree algorithm of Shun and
Blelloch.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.runtime.cost_model import CostTracker, WorkDepth, combine_parallel
from repro.runtime.instrumentation import span
from repro.trees.wtree import WeightedTree

__all__ = ["merge_spines", "extract_spine", "sld_divide_and_conquer"]


@cost_bound(
    work="h",
    depth="h",
    vars=("h",),
    kind="helper",
    theorem="Section 3.1: a spine is a root path, length at most h",
)
def extract_spine(parents: np.ndarray, e: int) -> list[int]:
    """Node-to-root path from ``e`` following parent pointers."""
    spine = [int(e)]
    while parents[spine[-1]] != spine[-1]:
        spine.append(int(parents[spine[-1]]))
    return spine


@cost_bound(
    work="h",
    depth="h",
    vars=("h",),
    kind="helper",
    theorem="Algorithm 1 line 2 / Theorem 3.5: two-way sorted spine merge",
)
def merge_spines(
    parents: np.ndarray, spine_a: list[int], spine_b: list[int], ranks: np.ndarray
) -> list[int]:
    """Merge two characteristic spines in place (Algorithm 1, line 2).

    Both spines must be rank-ascending node-to-root paths in their
    respective SLDs (their tops are the two roots).  Relinks parents so
    every node's parent is its successor in the rank-merged order; the
    merged top becomes the root of the combined SLD.  Returns the merged
    spine (useful for testing and for the path D&C).
    """
    merged: list[int] = []
    i = j = 0
    while i < len(spine_a) and j < len(spine_b):
        if ranks[spine_a[i]] < ranks[spine_b[j]]:
            merged.append(spine_a[i])
            i += 1
        else:
            merged.append(spine_b[j])
            j += 1
    merged.extend(spine_a[i:])
    merged.extend(spine_b[j:])
    for a, b in zip(merged, merged[1:]):
        parents[a] = b
    if merged:
        parents[merged[-1]] = merged[-1]
    return merged


@cost_bound(
    work="n * log(n)",
    depth="n",
    vars=("n",),
    theorem="Section 3.1 framework over centroid splits: O(log n) levels, "
    "O(segment) split/merge work per node (not the optimal Theorem 3.7 bound)",
)
def sld_divide_and_conquer(tree: WeightedTree, tracker: CostTracker | None = None) -> np.ndarray:
    """Parent array of the SLD, by centroid divide-and-conquer SLD-Merge."""
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m == 0:
        return parents
    with span("solve"):
        cost = _solve(list(range(m)), tree.edges, tree.ranks, parents)
        if tracker is not None:
            tracker.add(cost)
    return parents


@cost_bound(
    work="n * log(n)",
    depth="n",
    vars=("n",),
    kind="helper",
    theorem="Section 3.1: balanced centroid recursion over the edge set",
)
def _solve(
    edge_ids: list[int],
    edges: np.ndarray,
    ranks: np.ndarray,
    parents: np.ndarray,
) -> WorkDepth:
    """Recursively solve the subtree spanned by ``edge_ids``."""
    k = len(edge_ids)
    if k == 1:
        parents[edge_ids[0]] = edge_ids[0]
        return WorkDepth.seq(1.0)

    adj: dict[int, list[tuple[int, int]]] = {}
    for e in edge_ids:
        u, v = int(edges[e, 0]), int(edges[e, 1])
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))

    centroid = _edge_centroid(adj, k)
    group_a, group_b = _partition_branches(adj, centroid)

    split_cost = WorkDepth.seq(float(2 * k))
    cost_a = _solve(group_a, edges, ranks, parents)
    cost_b = _solve(group_b, edges, ranks, parents)

    # Characteristic edges: min-rank edges incident to the split vertex on
    # each side (Algorithm 1, line 1).
    in_a = set(group_a)
    inc_a = [e for (_, e) in adj[centroid] if e in in_a]
    inc_b = [e for (_, e) in adj[centroid] if e not in in_a]
    e_star_a = min(inc_a, key=lambda e: ranks[e])
    e_star_b = min(inc_b, key=lambda e: ranks[e])
    spine_a = extract_spine(parents, e_star_a)
    spine_b = extract_spine(parents, e_star_b)
    merge_cost = WorkDepth.seq(float(len(spine_a) + len(spine_b)))
    merge_spines(parents, spine_a, spine_b, ranks)
    return split_cost + combine_parallel([cost_a, cost_b]) + merge_cost


def _edge_centroid(adj: dict[int, list[tuple[int, int]]], m: int) -> int:
    """Vertex minimizing its largest incident branch (in edges).

    The winner has maximum branch <= ceil(m/2) and degree >= 2 whenever
    ``m >= 2``, so both recursion sides are nonempty.
    """
    root = next(iter(adj))
    # Iterative post-order: subtree edge counts below each vertex.
    sub = {v: 0 for v in adj}
    parent: dict[int, int | None] = {root: None}
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w, _ in adj[v]:
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    for v in reversed(order):
        p = parent[v]
        if p is not None:
            sub[p] += sub[v] + 1
    best_v = root
    best_max = m + 1
    for v in adj:
        worst = m - sub[v]  # the "upward" branch
        for w, _ in adj[v]:
            if w != parent[v]:
                worst = max(worst, sub[w] + 1)
        if worst < best_max or (worst == best_max and v < best_v):
            best_max = worst
            best_v = v
    return best_v


def _partition_branches(
    adj: dict[int, list[tuple[int, int]]], centroid: int
) -> tuple[list[int], list[int]]:
    """Split the centroid's branches into two balanced edge groups."""
    branches: list[list[int]] = []
    for w, e in adj[centroid]:
        comp = [e]
        stack = [(w, centroid)]
        while stack:
            x, frm = stack.pop()
            for y, f in adj[x]:
                if y != frm:
                    comp.append(f)
                    stack.append((y, x))
        branches.append(comp)
    branches.sort(key=len, reverse=True)
    group_a: list[int] = []
    group_b: list[int] = []
    for comp in branches:
        (group_a if len(group_a) <= len(group_b) else group_b).extend(comp)
    return group_a, group_b
