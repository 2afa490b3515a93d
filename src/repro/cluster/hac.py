"""Nearest-neighbor-chain hierarchical agglomerative clustering.

ParUF (paper Section 4.1) is "inspired by the nearest-neighbor chain
algorithm, a well-known technique for HAC that obtains good parallelism in
practice for other linkage criteria such as average-linkage and
complete-linkage".  This module implements that classic algorithm for the
*reducible* Lance-Williams linkages (single, complete, average, weighted),
both as a baseline to compare ParUF against conceptually and as a usable
general-purpose HAC.

The chain invariant: follow nearest-neighbor pointers until a reciprocal
pair is found; reducibility guarantees merging a reciprocal pair never
invalidates the rest of the chain.  Merges may be discovered out of height
order, so the linkage matrix is sorted and relabeled afterwards (the same
post-processing SciPy's ``nn_chain`` performs).

For ``method="single"`` this is the quadratic general-purpose route; the
package's MST + dendrogram pipeline (:mod:`repro.cluster.single_linkage`)
is the right tool for large single-linkage inputs.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.knn import pairwise_distances
from repro.dendrogram.linkage import linkage_from_merges
from repro.errors import InvalidGraphError

__all__ = ["nn_chain_linkage", "LINKAGE_METHODS"]

LINKAGE_METHODS = ("single", "complete", "average", "weighted")


def _lance_williams(method: str, d_ax: float, d_bx: float, na: int, nb: int) -> float:
    if method == "single":
        return min(d_ax, d_bx)
    if method == "complete":
        return max(d_ax, d_bx)
    if method == "average":
        return (na * d_ax + nb * d_bx) / (na + nb)
    # weighted (McQuitty)
    return 0.5 * (d_ax + d_bx)


def nn_chain_linkage(points: np.ndarray, method: str = "average") -> np.ndarray:
    """SciPy-compatible linkage matrix by the nearest-neighbor chain.

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates (Euclidean distances).
    method:
        One of :data:`LINKAGE_METHODS` (all reducible, so the chain
        algorithm is exact for them).
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage {method!r}; expected one of {LINKAGE_METHODS}")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidGraphError(f"points must be 2-D (n, d), got shape {pts.shape}")
    n = pts.shape[0]
    if n < 2:
        raise InvalidGraphError(f"need at least two points, got {n}")

    dist = pairwise_distances(pts)
    np.fill_diagonal(dist, np.inf)
    active = np.ones(n, dtype=bool)
    size = np.ones(n, dtype=np.int64)
    merges: list[tuple[int, int, float]] = []  # (slot_a, slot_b, height)

    chain: list[int] = []
    remaining = n
    while remaining > 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        a = chain[-1]
        row = np.where(active, dist[a], np.inf)
        row[a] = np.inf
        b = int(np.argmin(row))
        # Prefer the chain predecessor on ties: guarantees reciprocal pairs
        # terminate even with duplicate distances.
        if len(chain) >= 2 and row[chain[-2]] == row[b]:
            b = chain[-2]
        if len(chain) >= 2 and b == chain[-2]:
            height = float(dist[a, b])
            merges.append((a, b, height))
            chain.pop()
            chain.pop()
            # Merge b into a's slot via Lance-Williams updates.
            na, nb = int(size[a]), int(size[b])
            others = np.flatnonzero(active)
            for x in others:
                if x == a or x == b:
                    continue
                dist[a, x] = dist[x, a] = _lance_williams(
                    method, float(dist[a, x]), float(dist[b, x]), na, nb
                )
            active[b] = False
            size[a] = na + nb
            remaining -= 1
        else:
            chain.append(b)

    # Chain merges come out of height order: replay them by (height, discovery).
    order = sorted(range(len(merges)), key=lambda i: (merges[i][2], i))
    return linkage_from_merges(n, [merges[i] for i in order])
