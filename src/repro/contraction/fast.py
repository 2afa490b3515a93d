"""Array-based tree contraction: the vectorized twin of ``schedule.py``.

RC-tree construction dominates RCTT's running time (paper Figure 7 and our
reproduction), and the paper names faster tree contraction as future work.
This module removes the per-vertex Python/dict overhead of the reference
scheduler by representing the contracting tree with *algebraic incidence
accumulators* instead of adjacency lists:

for every vertex ``v`` maintain, over its current incident (neighbor,
edge) pairs,

* ``deg[v]``        -- the degree,
* ``nbr_sum[v]``    -- sum of neighbor ids,
* ``nbr_sqsum[v]``  -- sum of squared neighbor ids,
* ``edge_sum[v]``   -- sum of incident edge ids,
* ``cross_sum[v]``  -- sum of ``neighbor * edge`` products.

A degree-1 vertex reads its unique neighbor/edge straight from the sums.
A degree-2 vertex recovers its two neighbors from ``(sum, sqsum)`` --
``(a-b)^2 = 2*sqsum - sum^2`` -- and then its two edges by solving the
2x2 linear system ``{e1+e2, a*e1+b*e2}``.  Every rake/compress round then
becomes a handful of NumPy kernels with ``np.add.at`` scatter updates
(which correctly accumulate when many vertices contract into one target).

The schedule produced is **identical** to the reference builder's for the
same seed -- both implement "all leaves rake (lower priority yields on
leaf-leaf edges); degree-2 priority local-maxima compress toward the
lesser-rank edge" -- which the tests assert array-for-array.

Overflow bound: ``cross_sum`` can reach ``deg * n * m``; with int64 this
is safe for ``n`` up to ~50M (far above anything a single Python process
holds), and the reference builder remains available beyond that.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.checkers.contracts import slab_contract
from repro.contraction.rctree import KIND_COMPRESS, KIND_RAKE, KIND_ROOT, RCTree
from repro.runtime.cost_model import CostTracker, WorkDepth
from repro.trees.wtree import WeightedTree
from repro.util import check_random_state, log2ceil

__all__ = ["build_rc_tree_fast"]


@cost_bound(
    work="n * log(n)",
    depth="log(n)**2",
    vars=("n",),
    theorem="randomized Miller-Reif contraction, vectorized rounds: same "
    "charged schedule costs as the reference builder",
)
@slab_contract(
    dtypes={
        "tree.edges": "int64",
        "tree.ranks": "int64",
        "tree.weights": "float64",
    },
)
def build_rc_tree_fast(
    tree: WeightedTree,
    seed: int | np.random.Generator | None = 0,
    tracker: CostTracker | None = None,
    priorities: str = "random",
) -> RCTree:
    """Contract ``tree`` with vectorized rounds; return the RC-tree.

    Its callers read only the arrays, so ``rounds`` records each round's
    kind with an empty event list (``num_rounds`` still counts them);
    :func:`~repro.contraction.schedule.build_rc_tree` records the events.
    """
    if priorities not in ("random", "id"):
        raise ValueError(f"unknown priority rule {priorities!r}; expected 'random' or 'id'")
    # This builder has no reference twin behind it, so it charges its own
    # per-round costs when given a tracker.
    n = tree.n
    ranks = tree.ranks
    rc_parent = np.arange(n, dtype=np.int64)
    rc_edge = np.full(n, -1, dtype=np.int64)
    rc_round = np.full(n, -1, dtype=np.int64)
    rc_kind = np.full(n, KIND_ROOT, dtype=np.int64)
    rounds: list[tuple[str, list]] = []

    if n == 1:
        return RCTree(n, 0, rc_parent, rc_edge, rc_round, rc_kind, rounds)

    if priorities == "random":
        rng = check_random_state(seed)
        priority = rng.permutation(n).astype(np.int64, copy=False)
    else:
        priority = np.arange(n, dtype=np.int64)

    eu = tree.edges[:, 0]
    ev = tree.edges[:, 1]
    deg = np.bincount(tree.edges.reshape(-1), minlength=n).astype(np.int64, copy=False)
    nbr_sum = np.zeros(n, dtype=np.int64)
    nbr_sqsum = np.zeros(n, dtype=np.int64)
    edge_sum = np.zeros(n, dtype=np.int64)
    cross_sum = np.zeros(n, dtype=np.int64)
    eids = np.arange(tree.m, dtype=np.int64)
    np.add.at(nbr_sum, eu, ev)
    np.add.at(nbr_sum, ev, eu)
    np.add.at(nbr_sqsum, eu, ev * ev)
    np.add.at(nbr_sqsum, ev, eu * eu)
    np.add.at(edge_sum, eu, eids)
    np.add.at(edge_sum, ev, eids)
    np.add.at(cross_sum, eu, ev * eids)
    np.add.at(cross_sum, ev, eu * eids)

    alive = np.ones(n, dtype=bool)
    alive_count = n
    round_index = 0

    def detach(owner: np.ndarray, nbr: np.ndarray, edge: np.ndarray) -> None:
        """Remove (nbr, edge) pairs from owners' accumulators (scattered)."""
        np.add.at(deg, owner, -1)
        np.add.at(nbr_sum, owner, -nbr)
        np.add.at(nbr_sqsum, owner, -(nbr * nbr))
        np.add.at(edge_sum, owner, -edge)
        np.add.at(cross_sum, owner, -(nbr * edge))

    def attach(owner: np.ndarray, nbr: np.ndarray, edge: np.ndarray) -> None:
        np.add.at(deg, owner, 1)
        np.add.at(nbr_sum, owner, nbr)
        np.add.at(nbr_sqsum, owner, nbr * nbr)
        np.add.at(edge_sum, owner, edge)
        np.add.at(cross_sum, owner, nbr * edge)

    # O(log n) rounds whp; each iteration is one synchronous vectorized
    # round, charged to the tracker per round.
    while alive_count > 1:  # noqa: RPR102
        # ---------------- rake round ----------------
        leaves = np.flatnonzero(alive & (deg == 1))
        if leaves.size:
            u = nbr_sum[leaves]  # unique neighbor
            e = edge_sum[leaves]  # unique edge
            # leaf-leaf pairs: only the lower-priority endpoint rakes
            keep = (deg[u] != 1) | (priority[leaves] <= priority[u])
            v_r = leaves[keep]
            u_r = u[keep]
            e_r = e[keep]
            detach(u_r, v_r, e_r)
            alive[v_r] = False
            deg[v_r] = 0
            rc_parent[v_r] = u_r
            rc_edge[v_r] = e_r
            rc_round[v_r] = round_index
            rc_kind[v_r] = KIND_RAKE
            alive_count -= int(v_r.size)
            rounds.append(("rake", []))
            round_index += 1
            if tracker is not None:
                tracker.add(WorkDepth(float(leaves.size), float(log2ceil(n) + 1)))
        if alive_count <= 1:
            break

        # ---------------- compress round ----------------
        cand = np.flatnonzero(alive & (deg == 2))
        if cand.size:
            s = nbr_sum[cand]
            q = nbr_sqsum[cand]
            disc = 2 * q - s * s  # (a - b)^2, exact in int64
            # np.sqrt(int64) yields float64 directly; the int64 round-trip
            # is the point of the statement (one conversion per O(log n)
            # round over the shrinking candidate set, not per element-loop).
            d = np.rint(np.sqrt(disc)).astype(np.int64)  # noqa: RPR202 -- conversion is the op
            # correct any float rounding (at most off by one)
            d += (d + 1) * (d + 1) <= disc
            d -= d * d > disc
            a = (s + d) >> 1
            b = (s - d) >> 1
            se = edge_sum[cand]
            sc = cross_sum[cand]
            # a != b always (distinct vertices), so the system is regular
            e_a = (sc - b * se) // (a - b)
            e_b = se - e_a
            # independence: priority local maxima among degree-2 neighbors
            keep = ((deg[a] != 2) | (priority[a] < priority[cand])) & (
                (deg[b] != 2) | (priority[b] < priority[cand])
            )
            v_c = cand[keep]
            if v_c.size:
                a_c, b_c = a[keep], b[keep]
                ea_c, eb_c = e_a[keep], e_b[keep]
                # merge toward the lesser-rank edge: u via e1, w keeps e2
                swap = ranks[ea_c] > ranks[eb_c]
                u_c = np.where(swap, b_c, a_c)
                w_c = np.where(swap, a_c, b_c)
                e1_c = np.where(swap, eb_c, ea_c)
                e2_c = np.where(swap, ea_c, eb_c)
                # splice: u loses (v, e1) gains (w, e2); w's (v, e2) -> (u, e2)
                detach(u_c, v_c, e1_c)
                detach(w_c, v_c, e2_c)
                attach(u_c, w_c, e2_c)
                attach(w_c, u_c, e2_c)
                alive[v_c] = False
                deg[v_c] = 0
                rc_parent[v_c] = u_c
                rc_edge[v_c] = e1_c
                rc_round[v_c] = round_index
                rc_kind[v_c] = KIND_COMPRESS
                alive_count -= int(v_c.size)
                rounds.append(("compress", []))
                round_index += 1
            if tracker is not None:
                tracker.add(WorkDepth(float(cand.size), float(log2ceil(n) + 1)))

    root = int(np.flatnonzero(alive)[0])
    rc_round[root] = round_index
    return RCTree(n, root, rc_parent, rc_edge, rc_round, rc_kind, rounds)
