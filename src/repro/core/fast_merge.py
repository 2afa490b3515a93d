"""Slab-native SLD construction: the flat-array backend for ``divide-conquer``.

The reference SLD-Merge path (``repro.core.merge``) and the weight-D&C it
generalizes (``repro.core.weight_dc``) both recurse through Python objects
-- per-call edge-id lists, dict-based component tables, scalar glue loops.
This twin computes the same dendrogram with no per-merge Python objects:
it emits the ``parents`` slab directly from a *level-synchronous* sweep
over aligned power-of-two rank segments.

Write the edge ranks ``0..m-1`` at the leaves of a binary interval tree
and process its levels top-down.  At segment size ``s`` every aligned
segment ``[a, a+s)`` splits at its midpoint ``c = a + s/2``:

* the segment's endpoint labels name the merge clusters *at time* ``a``
  (each coarser level relabeled exactly the edges that were in its high
  half, so all edges of a segment share one relabel history -- segments
  are perfectly nested);
* the connected components of the low-half edges ``[a, c)`` over those
  labels are therefore the clusters formed inside the window, and each
  component's dendrogram root is its max-rank edge (the window's top
  merge of that cluster);
* by the glue lemma (Lemma 4.2 / ``weight_dc``), that root's parent is
  the minimum-rank high-half edge incident to the contracted component --
  *when one exists in this segment*.  When none does, the cluster's next
  merge lies beyond the segment and the write happened at the unique
  coarser level where the root rank and its parent rank first split into
  different halves.  Every ``parents`` cell is thus written exactly once,
  and the global root (rank ``m-1``) never.

All per-level phases are vectorized: one ``np.unique`` over composite
``segment * n + label`` keys compacts every segment's low-half endpoints
at once (segments never mix -- a low edge keys both endpoints with its
own segment id), deterministic min-hooking with pointer-doubling
compression finds the components (the converged representative is the
component's minimum label, so relabeling stays injective per cluster),
``np.maximum.at`` scatters the component roots, and one lexsort over
``(component, rank)`` glue rows picks each component's minimum-rank
incident high edge.  Output is **bit-identical** to the reference: the
SLD is unique under the (weight, edge-id) rank order.

With instrumentation active (a tracker, or a shadow-access recorder
installed) this backend delegates to the reference
implementation, which owns the work/depth accounting.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.checkers.contracts import slab_contract
from repro.core.merge import sld_divide_and_conquer
from repro.runtime.cost_model import CostTracker, instrumented
from repro.trees.wtree import WeightedTree
from repro.util import log2ceil

__all__ = ["sld_merge_fast"]


@cost_bound(
    work="n * log(n)",
    depth="n",
    vars=("n",),
    theorem="instrumented runs delegate to sld_divide_and_conquer, so "
    "charged cost is the reference's (Section 3.1 centroid splits); the "
    "uncharged array path is the level-synchronous sweep _merge_levels "
    "declares",
)
@slab_contract(
    dtypes={
        "tree.edges": "int64",
        "tree.ranks": "int64",
        "tree.weights": "float64",
    },
    returns="int64",
)
def sld_merge_fast(tree: WeightedTree, tracker: CostTracker | None = None) -> np.ndarray:
    """Parent array of the SLD, by the level-synchronous array merge.

    Bit-identical to :func:`repro.core.merge.sld_divide_and_conquer` (and
    every other registered algorithm -- the SLD is unique) on every input.
    """
    if instrumented(tracker):
        return sld_divide_and_conquer(tree, tracker=tracker)
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m <= 1:
        return parents
    _merge_levels(tree, parents)
    return parents


@cost_bound(
    work="n * log(n)**2",
    depth="log(n)**2",
    vars=("n",),
    kind="helper",
    theorem="one top-down level per bit of the rank range; per level one "
    "np.unique sort, O(log) CC rounds, one glue lexsort",
)
@slab_contract(
    dtypes={"tree.edges": "int64", "tree.ranks": "int64", "parents": "int64"},
    contiguous=("parents",),
    writes=("parents",),
)
def _merge_levels(tree: WeightedTree, parents: np.ndarray) -> None:
    """Fill ``parents`` (in-place) by the aligned-segment level sweep.

    Everything runs in *rank space*: index ``r`` of the working arrays is
    the edge of rank ``r``, so a level's segments are arithmetic masks
    over ``arange(m)`` and the composite CC keys come from one shift.
    ``order`` maps ranks back to edge ids only when writing ``parents``.
    """
    m = tree.m
    n = tree.n
    ranks = tree.ranks
    rr = np.arange(m, dtype=np.int64)
    # order[r] = id of the edge with rank r (ranks is a permutation).
    order = np.empty(m, dtype=np.int64)
    order[ranks] = rr
    # Working endpoint labels, rank-indexed; levels relabel their high
    # halves in place as the sweep descends.
    lu = np.ascontiguousarray(tree.edges[order, 0])
    lv = np.ascontiguousarray(tree.edges[order, 1])
    for shift in range(log2ceil(m), 0, -1):
        half = np.int64(1) << (shift - 1)
        seg = rr >> shift
        is_low = (rr & half) == 0
        idx_low = np.flatnonzero(is_low)
        idx_high = np.flatnonzero(~is_low)
        # -- components of every segment's low half at once.  Composite
        # keys keep segments apart; np.unique compacts the label domain.
        keys = np.concatenate(  # noqa: RPR204 -- fresh per-level key slab
            (seg[idx_low] * n + lu[idx_low], seg[idx_low] * n + lv[idx_low])
        )
        uniq, inv = np.unique(keys, return_inverse=True)
        kl = idx_low.size
        a = inv[:kl]
        b = inv[kl:]
        p = np.arange(uniq.size, dtype=np.int64)
        while True:  # noqa: RPR102 -- min-hooking CC, O(log) rounds
            pa = p[a]
            pb = p[b]
            if np.array_equal(pa, pb):
                break
            np.minimum.at(p, np.maximum(pa, pb), np.minimum(pa, pb))
            while True:  # noqa: RPR102 -- pointer-jumping, O(log) hops
                nxt = p[p]
                if np.array_equal(nxt, p):
                    break
                p = nxt
        # -- component roots: the max-rank low edge of each component
        # (its rank; idx_low *is* the rank in rank space).
        maxrank = np.full(uniq.size, -1, dtype=np.int64)
        np.maximum.at(maxrank, p[a], idx_low)
        # -- locate the high edges' endpoints among the low components.
        seg_h = seg[idx_high]
        key_u = seg_h * n + lu[idx_high]
        key_v = seg_h * n + lv[idx_high]
        pos_u = np.minimum(np.searchsorted(uniq, key_u), uniq.size - 1)
        pos_v = np.minimum(np.searchsorted(uniq, key_v), uniq.size - 1)
        found_u = uniq[pos_u] == key_u
        found_v = uniq[pos_v] == key_v
        # -- glue: each component's min-rank incident high edge becomes
        # its root's parent (first row per component after the lexsort).
        row_comp = np.concatenate(  # noqa: RPR204 -- fresh per-level rows
            (p[pos_u[found_u]], p[pos_v[found_v]])
        )
        row_rank = np.concatenate(  # noqa: RPR204 -- fresh per-level rows
            (idx_high[found_u], idx_high[found_v])
        )
        if row_comp.size:
            g = np.lexsort((row_rank, row_comp))
            comp_s = row_comp[g]
            first = np.empty(comp_s.size, dtype=bool)
            first[0] = True
            first[1:] = comp_s[1:] != comp_s[:-1]
            parents[order[maxrank[comp_s[first]]]] = order[row_rank[g[first]]]
        # -- contract: relabel found high endpoints to their component's
        # representative label (the component's minimum label -- uniq is
        # sorted, reps are minima, so cluster naming stays injective).
        lu[idx_high[found_u]] = uniq[p[pos_u[found_u]]] - seg_h[found_u] * n
        lv[idx_high[found_v]] = uniq[p[pos_v[found_v]]] - seg_h[found_v] * n
