"""Definition-level brute-force oracle for SLD computation.

Computes each node's parent directly from the structural characterization
of Lemma 3.2 / Theorem 3.5: just before edge ``e`` merges, its cluster is
the set of vertices reachable from ``e``'s endpoints across edges of
*smaller* rank; the parent of ``e`` is then the minimum-rank edge of larger
rank on the cluster boundary (or ``e`` itself for the final merge).

This is ``O(n^2)`` and shares no code or algorithmic idea with the five
production algorithms, which is exactly what makes it a trustworthy test
oracle.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.runtime.cost_model import CostTracker
from repro.trees.wtree import WeightedTree

__all__ = ["brute_force_sld"]


@cost_bound(
    work="n * h",
    depth="n * h",
    vars=("n", "h"),
    theorem="Lemma 3.2 evaluated literally: one flood per edge over its "
    "cluster; total adjacency slots scanned is O(sum of cluster sizes) = O(nh)",
)
def brute_force_sld(tree: WeightedTree, tracker: CostTracker | None = None) -> np.ndarray:
    """Parent array of the SLD, computed from the definition.

    The oracle is sequential, so the charged cost is one flat segment:
    work = depth = total adjacency slots scanned across all floods.
    """
    m = tree.m
    ranks = tree.ranks
    parents = np.arange(m, dtype=np.int64)
    offsets, nbr_vertex, nbr_edge = tree.adjacency()
    scanned = 0

    for e in range(m):
        re = int(ranks[e])
        # Flood from e's endpoints across strictly-smaller-rank edges.
        seen = {int(tree.edges[e, 0]), int(tree.edges[e, 1])}
        stack = list(seen)
        best = -1  # min-rank boundary edge with rank > re
        while stack:
            v = stack.pop()
            lo, hi = int(offsets[v]), int(offsets[v + 1])
            scanned += hi - lo
            for s in range(lo, hi):
                f = int(nbr_edge[s])
                if f == e:
                    continue
                rf = int(ranks[f])
                if rf < re:
                    w = int(nbr_vertex[s])
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
                else:
                    if best == -1 or rf < int(ranks[best]):
                        best = f
        if best != -1:
            parents[e] = best
    if tracker is not None:
        tracker.sequential(float(scanned))
    return parents
