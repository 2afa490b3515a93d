"""Vectorized SeqUF: the flat-array fast backend for ``sequf``.

The reference merge loop (``repro.core.sequf``) walks the rank-sorted
edges one at a time through a scalar union-find.  This twin processes the
same rank order in *windows* of consecutive edges and resolves most of a
window with a handful of NumPy kernels per round, classifying each pending
edge by the multiplicity of its endpoint clusters inside the window:

* **A** -- both cluster roots appear exactly once in the window: the merge
  is independent of every other pending edge, so all A edges apply as one
  batched scatter (top-node adoption + union).
* **B** -- exactly one endpoint root is shared (a *hub*): the edges leaning
  on one hub form a rank-sorted chain; the whole prefix of the chain below
  the hub's first *hard* edge (see C) merges in one grouped scatter pass.
  Grouping uses an ``argsort`` over the composite key ``hub * window +
  position`` -- unique keys, so an unstable sort suffices and the key fits
  int64 for any ``window <= 2**31 / n``.
* **C** -- both roots are shared (*hard* edges): only mutual minima -- an
  edge that is the smallest pending edge of both of its clusters -- merge
  this round; they invalidate cached roots, so surviving edges re-run the
  vectorized find before the next round.

Each round is ``O(window)`` vectorized work and removes every mergeable
edge, so a few rounds drain a random-structure window almost entirely; the
small residue (and degenerate inputs that make no batched progress, e.g.
monotone path weights where every edge is hard) falls back to a contracted
scalar drain over relabeled cluster ids.  The output is **bit-identical**
to the reference: the SLD is unique under the (weight, edge-id) rank
order, and every batched apply replays exactly the reference's merge
semantics in rank order within each cluster.

With instrumentation active (a tracker, or a shadow-access recorder
installed) this backend delegates to the reference
implementation: the array kernels have no meaningful per-operation cost
story -- they are a wall-clock backend, and the reference twin owns the
work/depth accounting.
"""

from __future__ import annotations

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.checkers.contracts import slab_contract
from repro.core.sequf import sequf
from repro.errors import InvalidTreeError
from repro.runtime.cost_model import CostTracker, instrumented
from repro.trees.wtree import WeightedTree

__all__ = ["sequf_fast"]

_BIG = np.iinfo(np.int64).max

#: Edges per window, and from ``_WIDE_INPUT`` edges on, the larger window
#: that pays for itself there (measured; see EXPERIMENTS.md).
_WINDOW = 8192
_WIDE_WINDOW = 16384
_WIDE_INPUT = 98304

#: A window's residue of at most this many edges goes to the scalar drain.
_DRAIN_BELOW = 128

#: Vectorized rounds per window before the scalar drain takes the rest.
_MAX_ROUNDS = 4


@cost_bound(
    work="n * log(n)",
    depth="n",
    vars=("n",),
    theorem="Section 1 baseline, batched: same O(n log n) sort + merge "
    "semantics as sequf, applied window-at-a-time",
)
@slab_contract(
    dtypes={
        "tree.edges": "int64",
        "tree.ranks": "int64",
        "tree.weights": "float64",
    },
    returns="int64",
)
def sequf_fast(tree: WeightedTree, tracker: CostTracker | None = None) -> np.ndarray:
    """Parent array of the SLD, by windowed array union-find merging.

    Bit-identical to :func:`repro.core.sequf.sequf` on every input.  The
    batching constants (``_WINDOW``, ``_DRAIN_BELOW``, ``_MAX_ROUNDS``)
    are the measured sweet spot.
    """
    if instrumented(tracker):
        return sequf(tree, tracker=tracker)
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m == 0:
        return parents
    window = _WIDE_WINDOW if m >= _WIDE_INPUT else _WINDOW
    order = np.argsort(tree.ranks, kind="stable")
    _merge_windowed(tree, order, parents, window, _DRAIN_BELOW, _MAX_ROUNDS)
    return parents


@cost_bound(
    work="n * log(n)",
    depth="n",
    vars=("n",),
    kind="helper",
    theorem="windowed replay of the sequential merge loop; each round is "
    "O(window) vectorized work",
)
@slab_contract(
    dtypes={"tree.edges": "int64", "order": "int64", "parents": "int64"},
    contiguous=("order", "parents"),
    writes=("parents",),
)
def _merge_windowed(
    tree: WeightedTree,
    order: np.ndarray,
    parents: np.ndarray,
    window: int,
    drain_below: int,
    max_rounds: int,
) -> None:
    """Apply all merges of ``order`` into ``parents`` (in-place).

    Each window first resolves its endpoints against the global union-find
    once and relabels the cluster roots it touches to *positional* local
    ids -- a root's id is the first index at which it appears among the
    window's ``2k`` endpoint roots, assigned by one reversed scatter (no
    sort, unlike ``np.unique``).  Every round then runs entirely in the
    local domain -- the per-round ``bincount`` and min-scatters cost
    ``O(window)`` instead of ``O(n)``, and re-finds after hard merges jump
    a cache-resident window-sized forest -- and the window's net effect
    (cluster unions and top-node moves) is written back to the global
    arrays wholesale at the end.
    """
    m = tree.m
    eu = np.ascontiguousarray(tree.edges[:, 0], dtype=np.int64)
    ev = np.ascontiguousarray(tree.edges[:, 1], dtype=np.int64)
    uf_parent = np.arange(tree.n, dtype=np.int64)
    # top[r] = most recent merge node inside the cluster rooted at r.
    top = np.full(tree.n, -1, dtype=np.int64)
    # Root -> first-occurrence position, written before read every window
    # (np.empty: never initialized wholesale).
    firstpos = np.empty(tree.n, dtype=np.int64)
    # Per-round scratch over the local domain, allocated once.
    flat_buf = np.empty(2 * window, dtype=np.int64)
    pts_buf = np.empty(2 * window, dtype=np.int64)
    find_buf = np.empty(2 * window, dtype=np.int64)
    minbad = np.empty(2 * window, dtype=np.int64)
    minpos = np.empty(2 * window, dtype=np.int64)
    lparent_buf = np.empty(2 * window, dtype=np.int64)
    ltop_buf = np.empty(2 * window, dtype=np.int64)
    idx_full = np.arange(window, dtype=np.int64)
    idx2_full = np.arange(2 * window, dtype=np.int64)
    rep_full = np.repeat(idx_full, 2)
    pos = 0
    slow = 0
    scalar_mode = False

    while pos < m:  # noqa: RPR102 -- m/window windows, sequential by design
        w = order[pos : pos + window]
        pos += w.size
        kk = w.size
        # One global find per window (with compression)...
        p = pts_buf[: 2 * kk]
        p[:kk] = eu[w]
        p[kk:] = ev[w]
        r = uf_parent[p]
        while True:  # noqa: RPR102 -- pointer-jumping, O(log n) hops
            nx = uf_parent[r]
            if np.array_equal(nx, r):
                break
            r = nx
        uf_parent[p] = r
        # ...then relabel the window's cluster domain to positional local
        # ids: the reversed scatter leaves each root's *first* position.
        a2 = idx2_full[: 2 * kk]
        dom = 2 * kk  # local-id domain: ids are positions in [0, 2k)
        firstpos[r[::-1]] = a2[::-1]
        lid = firstpos[r]
        ru = lid[:kk]
        rv = lid[kk:]
        if np.any(ru == rv):
            raise InvalidTreeError("edge joins two vertices already in one cluster")
        lparent = lparent_buf
        lparent[: 2 * kk] = a2
        ltop = ltop_buf
        ltop[lid] = top[r]

        def find(lu_a: np.ndarray, lv_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Current local roots of stale local roots, with compression."""
            sz = lu_a.size
            q = find_buf[: 2 * sz]
            q[:sz] = lu_a
            q[sz:] = lv_a
            lr = lparent[q]
            while True:  # noqa: RPR102 -- pointer-jumping, O(log u) hops
                nx = lparent[lr]
                if np.array_equal(nx, lr):
                    break
                lr = nx
            lparent[q] = lr
            return lr[:sz], lr[sz:]

        rounds = 0
        need_find = False
        bailed_round_one = False
        while w.size:  # noqa: RPR102 -- at most max_rounds + 1 iterations
            kk = w.size
            if need_find:
                ru, rv = find(ru, rv)
                need_find = False
            if scalar_mode or kk <= drain_below or rounds >= max_rounds:
                _drain_local(w, ru, rv, lparent, ltop, parents)
                break
            rounds += 1
            # Interleaved endpoint roots: flat = [ru0, rv0, ru1, rv1, ...].
            # The reversed scatters below then leave, for every root, the
            # *first* (lowest-rank) position at which it appears.
            flat = flat_buf[: 2 * kk]
            flat[0::2] = ru
            flat[1::2] = rv
            cnt = np.bincount(flat, minlength=dom)
            mu = cnt[ru] > 1
            mv = cnt[rv] > 1
            hard = mu & mv
            b_mask = mu ^ mv
            any_hard = bool(hard.any())
            rep = rep_full[: 2 * kk]
            if any_hard:
                minpos[flat[::-1]] = rep[::-1]
                ch = np.flatnonzero(hard)
                c_sel = ch[(minpos[ru[ch]] == ch) & (minpos[rv[ch]] == ch)]
                # A edges and mutual-minima C edges touch disjoint roots,
                # so their merge order is immaterial: fold c_sel into the
                # A mask instead of concatenating a fresh array per round.
                pmask = ~mu & ~mv
                pmask[c_sel] = True
                pidx = np.flatnonzero(pmask)
                need_find = c_sel.size > 0
            else:
                pidx = np.flatnonzero(~mu & ~mv)
            keep = np.ones(kk, dtype=bool)
            merged = 0
            if pidx.size:
                # A edges plus mutual-minima C edges: independent pair merges.
                merged += pidx.size
                keep[pidx] = False
                pw = w[pidx]
                rua = ru[pidx]
                rva = rv[pidx]
                tu = ltop[rua]
                tv = ltop[rva]
                mm = tu != -1
                parents[tu[mm]] = pw[mm]
                mm = tv != -1
                parents[tv[mm]] = pw[mm]
                lparent[rva] = rua
                ltop[rua] = pw
            if b_mask.any():
                # B edges: per-hub rank-sorted chains, valid strictly below
                # the hub's first hard edge (minbad).
                minbad[flat] = _BIG
                if any_hard:
                    hsel = np.flatnonzero(hard)
                    minbad[flat.reshape(-1, 2)[hsel].ravel()[::-1]] = np.repeat(hsel, 2)[::-1]
                bsel = np.flatnonzero(b_mask)
                mub = mu[bsel]
                rub = ru[bsel]
                rvb = rv[bsel]
                hub = np.where(mub, rub, rvb)
                okm = bsel < minbad[hub]
                if okm.any():
                    hub = hub[okm]
                    leaf = np.where(mub, rvb, rub)[okm]
                    bidx = bsel[okm]
                    b = w[bidx]
                    merged += bidx.size
                    keep[bidx] = False
                    # Composite key: unique per element, so the default
                    # (unstable) quicksort gives the grouped rank order.
                    sidx = np.argsort(hub * window + bidx)
                    hub_s = hub[sidx]
                    leaf_s = leaf[sidx]
                    b_s = b[sidx]
                    firstseg = np.empty(hub_s.size, dtype=bool)
                    firstseg[0] = True
                    firstseg[1:] = hub_s[1:] != hub_s[:-1]
                    prev = np.empty(b_s.size, dtype=np.int64)
                    prev[firstseg] = ltop[hub_s[firstseg]]
                    npf = np.flatnonzero(~firstseg)
                    prev[npf] = b_s[npf - 1]
                    mm = prev != -1
                    parents[prev[mm]] = b_s[mm]
                    tl = ltop[leaf_s]
                    mm = tl != -1
                    parents[tl[mm]] = b_s[mm]
                    lastseg = np.empty(hub_s.size, dtype=bool)
                    lastseg[:-1] = firstseg[1:]
                    lastseg[-1] = True
                    lparent[leaf_s] = hub_s
                    ltop[hub_s[lastseg]] = b_s[lastseg]
            # Stale roots stay valid inputs to the local find (the forest
            # maps them forward), so always slice them alongside ``w``.
            w = w[keep]
            ru = ru[keep]
            rv = rv[keep]
            if merged * 16 < kk:
                # Under 1/16 of the window merged: rounds are not paying
                # for themselves, drain the residue.
                if rounds == 1:
                    bailed_round_one = True
                if w.size:
                    if need_find:
                        ru, rv = find(ru, rv)
                    _drain_local(w, ru, rv, lparent, ltop, parents)
                break
        # Write the window's net effect back to the global arrays: resolve
        # the used local ids (first-occurrence positions) to their local
        # roots, remap to global roots through ``r`` (a local id *is* a
        # position into ``r``).
        sel = np.flatnonzero(lid == a2)
        lr = lparent[sel]
        while True:  # noqa: RPR102 -- pointer-jumping, O(log u) hops
            nxt = lparent[lr]
            if np.array_equal(nxt, lr):
                break
            lr = nxt
        uf_parent[r[sel]] = r[lr]
        top[r[lr]] = ltop[lr]
        if bailed_round_one:
            # Two consecutive windows whose *first* round already stalled:
            # degenerate rank structure (e.g. monotone path weights), go
            # scalar for the rest of the input.
            slow += 1
            if slow >= 2:
                scalar_mode = True
        else:
            slow = 0


@cost_bound(
    work="k * log(k)",
    depth="k",
    vars=("k",),
    kind="helper",
    theorem="contracted scalar replay of the reference merge loop over "
    "relabeled cluster ids",
)
@slab_contract(
    dtypes={
        "w": "int64",
        "ru": "int64",
        "rv": "int64",
        "lparent": "int64",
        "ltop": "int64",
        "parents": "int64",
    },
    writes=("lparent", "ltop", "parents"),
)
def _drain_local(
    w: np.ndarray,
    ru: np.ndarray,
    rv: np.ndarray,
    lparent: np.ndarray,
    ltop: np.ndarray,
    parents: np.ndarray,
) -> None:
    """Merge a window's residue with a scalar loop over the local domain.

    The residue's cluster roots are compacted once more (``np.unique`` --
    the residue is usually a small fraction of the window, so the lists
    below stay residue-sized), the merge loop runs over plain Python
    lists exactly like the reference fast path, and the net effect is
    written back into the caller's local forest (parent scatters go
    straight to ``parents``).
    """
    both = np.concatenate((ru, rv))
    uniq, inv = np.unique(both, return_inverse=True)
    kk = w.size
    # The scalar drain is the point of this helper: the residue is small,
    # and CPython-level list walking beats vectorized passes below ~128
    # elements (measured, see _DRAIN_BELOW).  Host handoff is deliberate.
    lu = inv[:kk].tolist()  # noqa: RPR205 -- scalar drain by design
    lv = inv[kk:].tolist()  # noqa: RPR205 -- scalar drain by design
    lp = list(range(uniq.size))
    lt = ltop[uniq].tolist()  # noqa: RPR205 -- scalar drain by design
    edges = w.tolist()  # noqa: RPR205 -- scalar drain by design
    out_idx: list[int] = []
    out_val: list[int] = []
    ap_i = out_idx.append
    ap_v = out_val.append
    for e, u, v in zip(edges, lu, lv):
        while lp[u] != u:  # noqa: RPR102 -- path halving
            lp[u] = lp[lp[u]]
            u = lp[u]
        while lp[v] != v:  # noqa: RPR102 -- path halving
            lp[v] = lp[lp[v]]
            v = lp[v]
        if u == v:
            raise InvalidTreeError("edge joins two vertices already in one cluster")
        tu = lt[u]
        tv = lt[v]
        if tu != -1:
            ap_i(tu)
            ap_v(e)
        if tv != -1:
            ap_i(tv)
            ap_v(e)
        lp[v] = u
        lt[u] = e
    if out_idx:
        parents[np.asarray(out_idx, dtype=np.int64)] = np.asarray(out_val, dtype=np.int64)
    # Resolve the residue forest and write it back into the local one.
    lpa = np.asarray(lp, dtype=np.int64)
    while True:  # noqa: RPR102 -- pointer-jumping, O(log u) hops
        nxt = lpa[lpa]
        if np.array_equal(nxt, lpa):
            break
        lpa = nxt
    reps = uniq[lpa]
    lparent[uniq] = reps
    ltop[reps] = np.asarray(lt, dtype=np.int64)[lpa]
