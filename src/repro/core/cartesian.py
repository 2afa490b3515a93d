"""Cartesian trees: the path-graph special case of SLD computation.

Single-linkage clustering on a path equals building the (max-at-root)
Cartesian tree of the edge-rank sequence: the parent of element ``i`` is
the smaller of its nearest greater value to the left and to the right
(everything strictly between must be smaller, i.e. already merged).  The
paper's SLD-Merge framework is "inspired by divide-and-conquer algorithms
for Cartesian trees" (Shun & Blelloch); both constructions are provided:

* ``method="stack"`` -- the classic sequential ``O(n)`` all-nearest-greater
  scan;
* ``method="dc"`` -- the divide-and-conquer construction: split the
  sequence in half, recurse, merge the two characteristic spines (the
  boundary edges' spines) with :func:`repro.core.merge.merge_spines`.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.core.merge import extract_spine, merge_spines
from repro.errors import AlgorithmError, InvalidTreeError
from repro.runtime.cost_model import CostTracker, WorkDepth, combine_parallel
from repro.trees.wtree import WeightedTree

__all__ = ["cartesian_tree_parents", "sld_path"]


@cost_bound(
    work="n",
    depth="n",
    vars=("n",),
    kind="helper",
    theorem="Shun-Blelloch: linear-work Cartesian tree construction",
)
def cartesian_tree_parents(values: np.ndarray, method: str = "stack") -> np.ndarray:
    """Parent index of each element in the max-at-root Cartesian tree.

    ``values`` must be pairwise distinct (ranks are).  The global maximum
    is the root and points to itself.
    """
    values = np.asarray(values)
    if method == "stack":
        return _cartesian_stack(values)
    if method == "dc":
        parents = np.arange(values.shape[0], dtype=np.int64)
        if values.shape[0]:
            _cartesian_dc(values, parents, 0, values.shape[0])
        return parents
    raise AlgorithmError(f"unknown Cartesian-tree method {method!r}")


def _cartesian_stack(values: np.ndarray) -> np.ndarray:
    """Nearest-greater-left/right scan with one monotone stack each way."""
    k = values.shape[0]
    parents = np.arange(k, dtype=np.int64)
    if k == 0:
        return parents
    ngl = np.full(k, -1, dtype=np.int64)
    ngr = np.full(k, -1, dtype=np.int64)
    stack: list[int] = []
    for i in range(k):
        while stack and values[stack[-1]] < values[i]:
            stack.pop()
        if stack:
            ngl[i] = stack[-1]
        stack.append(i)
    stack.clear()
    for i in range(k - 1, -1, -1):
        while stack and values[stack[-1]] < values[i]:
            stack.pop()
        if stack:
            ngr[i] = stack[-1]
        stack.append(i)
    for i in range(k):
        left, right = int(ngl[i]), int(ngr[i])
        if left == -1 and right == -1:
            parents[i] = i  # global maximum: the root
        elif left == -1:
            parents[i] = right
        elif right == -1:
            parents[i] = left
        else:
            parents[i] = left if values[left] < values[right] else right
    return parents


def _cartesian_dc(values: np.ndarray, parents: np.ndarray, lo: int, hi: int) -> None:
    """Shun-Blelloch style divide-and-conquer over ``values[lo:hi]``."""
    if hi - lo <= 1:
        return
    mid = (lo + hi) // 2
    _cartesian_dc(values, parents, lo, mid)
    _cartesian_dc(values, parents, mid, hi)
    # The halves are path subtrees sharing the boundary vertex between
    # elements mid-1 and mid; those two edges are the characteristic edges.
    spine_a = extract_spine(parents, mid - 1)
    spine_b = extract_spine(parents, mid)
    merge_spines(parents, spine_a, spine_b, values)


@cost_bound(
    work="n",
    depth="n",
    vars=("n",),
    theorem="Path special case (Shun-Blelloch): linear-work Cartesian tree "
    "(method='stack'; method='dc' is the O(n log n) divide-and-conquer)",
)
def sld_path(
    tree: WeightedTree,
    method: str = "stack",
    tracker: CostTracker | None = None,
) -> np.ndarray:
    """Parent array of the SLD of a *path* tree via Cartesian trees.

    Raises :class:`~repro.errors.InvalidTreeError` if the tree is not a
    path.  Edge order along the path is recovered by walking from one
    endpoint, so any vertex labeling is accepted.
    """
    m = tree.m
    if m == 0:
        return np.arange(0, dtype=np.int64)
    degrees = tree.degrees()
    if degrees.max() > 2:
        bad = int(np.argmax(degrees > 2))
        raise InvalidTreeError(f"not a path: vertex {bad} has degree {degrees[bad]}")
    # Walk from one endpoint to order edges along the path.
    start = int(np.flatnonzero(degrees == 1)[0])
    offsets, nbr_vertex, nbr_edge = tree.adjacency()
    order = np.empty(m, dtype=np.int64)
    prev, cur = -1, start
    for i in range(m):
        lo, hi = int(offsets[cur]), int(offsets[cur + 1])
        for s in range(lo, hi):
            if int(nbr_vertex[s]) != prev:
                order[i] = int(nbr_edge[s])
                prev, cur = cur, int(nbr_vertex[s])
                break
    values = tree.ranks[order]
    pos_parents = cartesian_tree_parents(values, method=method)
    parents = np.arange(m, dtype=np.int64)
    parents[order] = order[pos_parents]
    if tracker is not None:
        tracker.add(_path_cost(m, method))
    return parents


@cost_bound(work="m * log(m)", depth="m", vars=("m",), kind="helper",
            theorem="cost-charging table for the path case (no real loop over input)")
def _path_cost(m: int, method: str) -> WorkDepth:
    if method == "stack":
        return WorkDepth.seq(float(3 * m))
    # D&C: O(m log m) work in the worst case, O(h log m) depth bounded by
    # the balanced recursion; charge the standard shape.
    levels = max(1, int(np.ceil(np.log2(max(m, 2)))))
    per_level = [WorkDepth(float(m), float(levels)) for _ in range(levels)]
    total = WorkDepth.zero()
    for c in per_level:
        total = total + combine_parallel([c])
    return total
