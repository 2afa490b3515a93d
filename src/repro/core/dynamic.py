"""Batch-dynamic single-linkage dendrograms: edge inserts/deletes + weight updates.

The paper closes with the open question of maintaining the SLD under
updates; the same authors' follow-up ("Fully-Dynamic Parallel Algorithms
for Single-Linkage Clustering", arXiv 2506.18384) shows the shape of the
answer: maintain a minimum spanning tree of the evolving graph and repair
only the part of the dendrogram the MST change can reach.  This module
implements that shape sequentially on flat arrays, built on the
weight-divide-and-conquer gluing facts (see :mod:`repro.core.weight_dc`):

* **Insert (cycle rule).**  A new edge ``(u, v, w)`` closes one cycle with
  the tree path ``u..v``.  If ``w`` beats the path maximum, the maximum is
  evicted to the *reserve* (the non-tree edge set) and the new edge takes
  its slot; otherwise the new edge itself goes to the reserve and the
  dendrogram is untouched.
* **Delete (cut rule).**  Deleting a reserve edge is free.  Deleting a
  tree edge splits the tree in two; the lightest reserve edge crossing the
  cut is promoted into the vacated slot (:class:`~repro.errors.NotConnectedError`
  if none exists -- the whole batch rolls back, leaving the engine intact).
* **Dendrogram repair.**  Let ``lo`` be the smallest rank any touched slot
  held before or after the batch.  Edges of rank below ``lo`` kept both
  membership and relative order, so (Lemma 3.2) the internal structure of
  every low-forest component survives verbatim; only the dendrogram of the
  **contracted high tree** (re-solved by RCTT, the static solver every
  pipeline defaults to) and the **glue parents** of the low components'
  roots (Lemma 4.2) are recomputed -- ``O((m - lo) log m)`` instead of a
  from-scratch solve.

The tree is held as a **rooted parent array**: ``_up[x]`` is ``x``'s
parent vertex (``-1`` at the root) and ``_up_slot[x]`` the slot of that
edge.  A path maximum walks both endpoints up to their meeting vertex
(``O(depth)``); rewiring a slot reverses the parent pointers on one root
path (``O(depth)``); the side of a cut is marked by pointer doubling over
``_up`` (``O(n log depth)``, vectorized).  The reserve is two flat arrays
of pair codes ``u * n + v`` (``u < v``) and weights plus a code -> cell
dict: membership, add and delete are ``O(1)``, and the lightest crossing
edge is one masked minimum.  While a batch is open every slot rewrite and
reserve write logs its inverse, so a rollback replays only what the batch
touched.

Replacement edges inherit the evicted edge's array *slot*, so edge ids
stay dense in ``[0, m)``, ``m`` stays ``n - 1``, and the maintained parent
array is bit-identical to :func:`~repro.core.sequf.sequf` on the
maintained tree (the differential-fuzz oracle).

Rank bookkeeping is incremental: a sorted weight array plus the rank
permutation are maintained by shifting only the ``[min(old, new),
max(old, new)]`` window (``O(window + log m)``), so a no-op or
rank-preserving update costs ``O(log m)`` -- the Theta(m log m) re-rank
the first version of this module paid per update is gone.

Staleness contract: :attr:`DynamicSLD.generation` is a monotonic counter
bumped exactly when the maintained tree (edge slots or weights) changes.
Snapshots built via :meth:`DynamicSLD.snapshot` carry the stamp, and
:class:`~repro.dendrogram.query.QueryEngine.is_stale` compares it, so the
serving layer can detect artifacts that predate an update.  Reserve-only
batches leave the dendrogram -- and the counter -- untouched.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import partial

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from repro.checkers.bounds import cost_bound
from repro.core.rctt import rctt
from repro.dendrogram.structure import Dendrogram
from repro.errors import InvalidGraphError, InvalidWeightsError, NotConnectedError
from repro.trees.mst import mst_ids
from repro.trees.weights import ranks_of
from repro.trees.wtree import WeightedTree

__all__ = ["DynamicSLD"]

#: Normalized ``(min, max)`` endpoint pair -- the identity of a graph edge.
Pair = tuple[int, int]


def _norm_pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


class DynamicSLD:
    """Maintains the SLD of a graph's MST under batched edge updates.

    Attributes
    ----------
    parents:
        The current dendrogram parent array (kept exact at all times;
        bit-identical to ``sequf(self.tree())``).
    generation:
        Monotonic counter bumped whenever the maintained tree changes
        (slots or weights).  Batches that only touch the reserve, empty
        batches, and same-value weight updates do not bump it.
    last_update_size:
        Number of edges whose subproblem was recomputed by the most
        recent update (``m`` for the initial build, ``0`` for a no-op).
    """

    def __init__(self, tree: WeightedTree) -> None:
        self.n = tree.n
        self.edges = tree.edges.copy()
        self.weights = tree.weights.copy()
        self.m = self.edges.shape[0]
        self.parents = np.arange(self.m, dtype=np.int64)
        self._up = np.full(self.n, -1, dtype=np.int64)
        self._up_slot = np.full(self.n, -1, dtype=np.int64)
        if self.m:
            a, b = self.edges[:, 0], self.edges[:, 1]
            graph = coo_matrix(
                (np.ones(self.m, dtype=np.int8), (a, b)), shape=(self.n, self.n)
            )
            _, pred = breadth_first_order(graph, 0, directed=False)
            self._up[:] = np.where(pred >= 0, pred, -1)
            child = np.where(self._up[a] == b, a, b)
            self._up_slot[child] = np.arange(self.m, dtype=np.int64)
        self._res_code = np.empty(0, dtype=np.int64)
        self._res_w = np.empty(0, dtype=np.float64)
        self._res_len = 0
        self._res_cell: dict[int, int] = {}
        self._undo: list[Callable[[], object]] | None = None
        self._ranks = ranks_of(self.weights)
        self._order = np.argsort(self._ranks).astype(np.int64)
        self._sorted_weights = self.weights[self._order].copy()
        self.generation = 0
        self.last_update_size = self.m
        self.total_recomputed = 0
        if self.m:
            self._recompute_suffix(0)

    @classmethod
    def from_graph(cls, n: int, edges: np.ndarray, weights: np.ndarray) -> "DynamicSLD":
        """Build the engine over a connected graph: MST slots + reserve.

        The MST (deterministic ``(weight, edge id)`` tie-breaking) becomes
        the tree slots, in ascending input-edge order; every other edge
        goes to the reserve.  Raises
        :class:`~repro.errors.NotConnectedError` if the graph is
        disconnected and :class:`~repro.errors.InvalidGraphError` on
        duplicate endpoint pairs (edges are keyed by pair here).
        """
        edges = np.asarray(edges, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        tree_ids = mst_ids(n, edges, weights)
        if edges.shape[0]:
            canon = np.sort(edges, axis=1)
            if np.unique(canon, axis=0).shape[0] != edges.shape[0]:
                raise InvalidGraphError(
                    "dynamic engine edges are keyed by endpoint pair; "
                    "duplicate (parallel) edges are not supported"
                )
        tree = WeightedTree(
            n, edges[tree_ids].copy(), weights[tree_ids].copy(), validate=False
        )
        obj = cls(tree)
        in_tree = np.zeros(edges.shape[0], dtype=bool)
        in_tree[tree_ids] = True
        rest = np.flatnonzero(~in_tree)
        pairs = np.sort(edges[rest], axis=1)
        obj._res_code = pairs[:, 0] * obj.n + pairs[:, 1]
        obj._res_w = weights[rest]
        obj._res_len = int(rest.size)
        obj._res_cell = dict(zip(obj._res_code.tolist(), range(obj._res_len)))
        return obj

    # -- public API ---------------------------------------------------------
    @property
    def ranks(self) -> np.ndarray:
        return self._ranks

    @property
    def reserve_size(self) -> int:
        """Number of non-tree edges currently held in the reserve."""
        return self._res_len

    def tree(self) -> WeightedTree:
        """Current weighted tree (fresh object; safe to hand out)."""
        return WeightedTree(self.n, self.edges.copy(), self.weights.copy(), validate=False)

    def dendrogram(self) -> Dendrogram:
        """Current dendrogram as a first-class object."""
        return Dendrogram(self.tree(), self.parents.copy())

    def snapshot(self) -> object:
        """Serving snapshot of the current dendrogram, generation-stamped."""
        from repro.dendrogram.snapshot import build_snapshot

        return build_snapshot(self.dendrogram(), generation=self.generation)

    def graph_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All current graph edges: tree slots first, then sorted reserve."""
        if not self._res_len:
            return self.edges.copy(), self.weights.copy()
        cells = np.argsort(self._res_code[: self._res_len])
        res_e = np.column_stack(np.divmod(self._res_code[cells], self.n))
        return (
            np.concatenate([self.edges, res_e], axis=0),
            np.concatenate([self.weights, self._res_w[cells]]),
        )

    def graph_weights(self) -> dict[Pair, float]:
        """Every current graph edge (tree + reserve), keyed by pair."""
        ends = np.sort(self.edges, axis=1)
        res_u, res_v = np.divmod(self._res_code[: self._res_len], self.n)
        u = np.concatenate([ends[:, 0], res_u]).tolist()
        v = np.concatenate([ends[:, 1], res_v]).tolist()
        w = np.concatenate([self.weights, self._res_w[: self._res_len]]).tolist()
        return {(a, b): x for a, b, x in zip(u, v, w)}

    @cost_bound(
        work="log(m) + (m - k) * log(m)",
        depth="log(m) + (m - k) * log(m)",
        vars=("m", "k"),
        kind="structure_op",
        theorem="Lemma 3.2/4.2 suffix repair; k = rank window floor",
    )
    def update_weight(self, e: int, new_weight: float) -> int:
        """Set ``weights[e] = new_weight``; return #edges recomputed.

        ``e`` addresses a tree slot (reserve edges are updated by
        delete + insert).  Same-value updates are free no-ops; updates
        that move no rank skip the suffix solve entirely
        (``last_update_size == 0``) but still bump :attr:`generation`,
        because the merge heights changed.  A weight *increase* while the
        reserve is non-empty re-certifies the cycle rule: if a reserve
        edge now beats slot ``e`` across its cut, they swap.
        """
        if not 0 <= e < self.m:
            raise ValueError(f"edge id {e} out of range [0, {self.m})")
        w = float(new_weight)
        if not np.isfinite(w):
            raise InvalidWeightsError(f"weight must be finite, got {new_weight}")
        old_w = float(self.weights[e])
        if w == old_w:
            self.last_update_size = 0
            return 0
        self.weights[e] = w
        old_rank, new_rank = self._shift_rank(e)
        self.generation += 1
        lo = min(old_rank, new_rank)
        structural = old_rank != new_rank
        if w > old_w and self._res_len:
            swap_lo = self._recertify_slot(e)
            if swap_lo < self.m:
                lo = min(lo, swap_lo)
                structural = True
        if not structural:
            self.last_update_size = 0
            return 0
        self._recompute_suffix(lo)
        return self.last_update_size

    @cost_bound(
        work="b * (n * log(n) + s) + (m - k) * log(m)",
        depth="b * (n * log(n) + s) + (m - k) * log(m)",
        vars=("n", "m", "b", "k", "s"),
        kind="structure_op",
        theorem="insert = cycle rule, an O(depth) path max on the rooted tree; "
        "delete = cut rule, O(n log depth + s) vectorized cut side and crossing "
        "scan (s = reserve size), O(1) on a reserve edge; rollback replays "
        "only the batch's undo log; one Lemma 3.2/4.2 suffix repair per batch "
        "(arXiv 2506.18384 shape)",
    )
    def apply_batch(
        self,
        inserts: Iterable[tuple[int, int, float]] = (),
        deletes: Iterable[tuple[int, int]] = (),
    ) -> int:
        """Insert/delete graph edges; return #dendrogram edges recomputed.

        Semantics (documented contract, pinned by tests):

        * inserts are processed before deletes, each list in order, so
          insert-then-delete of a fresh pair in one batch nets out;
        * a pair may appear at most once per list (``ValueError``);
          inserting a pair already in the graph or deleting one that is
          absent raises ``ValueError``;
        * a delete whose removal would disconnect the graph raises
          :class:`~repro.errors.NotConnectedError`;
        * **any** error rolls the whole batch back -- the engine is left
          exactly as before the call (strong exception guarantee);
        * the dendrogram is repaired once, from the lowest rank any
          touched slot held, not per operation;
        * :attr:`generation` bumps iff some tree slot changed -- batches
          that only touch the reserve leave it (and the dendrogram) alone.
        """
        ins = [(int(u), int(v), float(w)) for u, v, w in inserts]
        dels = [(int(u), int(v)) for u, v in deletes]
        seen_ins: set[Pair] = set()
        for u, v, w in ins:
            self._check_endpoints(u, v)
            if not np.isfinite(w):
                raise InvalidWeightsError(
                    f"insert ({u}, {v}): weight must be finite, got {w}"
                )
            key = _norm_pair(u, v)
            if key in seen_ins:
                raise ValueError(f"duplicate insert of edge {key} in one batch")
            seen_ins.add(key)
        seen_dels: set[Pair] = set()
        for u, v in dels:
            self._check_endpoints(u, v)
            key = _norm_pair(u, v)
            if key in seen_dels:
                raise ValueError(f"duplicate delete of edge {key} in one batch")
            seen_dels.add(key)
        if not ins and not dels:
            self.last_update_size = 0
            return 0

        lo = self.m
        tree_changed = False
        self._undo = []
        try:
            for u, v, w in ins:
                op_lo, changed = self._insert_edge(u, v, w)
                lo = min(lo, op_lo)
                tree_changed = tree_changed or changed
            for u, v in dels:
                op_lo, changed = self._delete_edge(u, v)
                lo = min(lo, op_lo)
                tree_changed = tree_changed or changed
        except Exception:
            self._rollback()
            raise
        finally:
            self._undo = None
        if tree_changed:
            self.generation += 1
        if lo < self.m:
            self._recompute_suffix(lo)
        else:
            self.last_update_size = 0
        return self.last_update_size

    # -- MST surgery --------------------------------------------------------
    def _check_endpoints(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidGraphError(
                f"vertex ids must lie in [0, {self.n}), got ({u}, {v})"
            )
        if u == v:
            raise InvalidGraphError(f"self-loop ({u}, {u}) is not a valid edge")

    def _code(self, u: int, v: int) -> int:
        """Reserve key of the pair ``{u, v}``: ``min * n + max``."""
        a, b = _norm_pair(u, v)
        return a * self.n + b

    def _tree_slot(self, u: int, v: int) -> int:
        """Slot of the tree edge ``{u, v}``, or ``-1`` if it is not one."""
        if self._up[u] == v:
            return int(self._up_slot[u])
        if self._up[v] == u:
            return int(self._up_slot[v])
        return -1

    def _insert_edge(self, u: int, v: int, w: float) -> tuple[int, bool]:
        """Cycle rule: returns ``(lowest disturbed rank, tree changed?)``."""
        code = self._code(u, v)
        if self._tree_slot(u, v) >= 0 or code in self._res_cell:
            raise ValueError(f"edge {_norm_pair(u, v)} is already in the graph")
        f = self._tree_path_max(u, v)
        if w < float(self.weights[f]):
            return self._swap_in(f, (u, v), w), True
        # Ties keep the incumbent: the tree stays a valid MST either way.
        self._reserve_add(code, w)
        return self.m, False

    def _delete_edge(self, u: int, v: int) -> tuple[int, bool]:
        """Cut rule: returns ``(lowest disturbed rank, tree changed?)``."""
        code = self._code(u, v)
        if code in self._res_cell:
            self._reserve_del(code)
            return self.m, False
        f = self._tree_slot(u, v)
        if f < 0:
            raise ValueError(f"edge {_norm_pair(u, v)} is not in the graph")
        best = self._best_crossing(self._cut_side(f))
        if best is None:
            raise NotConnectedError(
                f"deleting edge {_norm_pair(u, v)} disconnects the graph"
            )
        best_code, bw = best
        self._reserve_del(best_code)
        return self._set_slot(f, divmod(best_code, self.n), bw), True

    def _recertify_slot(self, e: int) -> int:
        """Cycle-rule re-check after slot ``e``'s weight increased.

        Returns the lowest rank a swap disturbed, or ``m`` if the
        incumbent is still (weakly) the lightest edge across its cut.
        """
        best = self._best_crossing(self._cut_side(e))
        if best is None or best[1] >= float(self.weights[e]):
            return self.m
        best_code, bw = best
        self._reserve_del(best_code)
        return self._swap_in(e, divmod(best_code, self.n), bw)

    def _swap_in(self, e: int, pair: tuple[int, int], w: float) -> int:
        """Put ``pair`` at weight ``w`` into slot ``e`` and move the edge it
        held to the reserve; returns the lowest rank the swap disturbed."""
        evicted = self._code(int(self.edges[e, 0]), int(self.edges[e, 1]))
        evicted_w = float(self.weights[e])
        lo = self._set_slot(e, pair, w)
        self._reserve_add(evicted, evicted_w)
        return lo

    def _root_path(self, x: int) -> list[int]:
        """Vertices from ``x`` up to its root, both included."""
        up = self._up
        path = [x]
        while (x := int(up[x])) >= 0:
            path.append(x)
        return path

    def _tree_path_max(self, u: int, v: int) -> int:
        """Slot of the max-``(weight, slot)`` edge on the tree path u..v."""
        from_u = self._root_path(u)
        pos = {x: i for i, x in enumerate(from_u)}
        from_v: list[int] = []
        x = v
        while x not in pos:
            from_v.append(x)
            x = int(self._up[x])
        # The path's edges are the parent edges of the vertices strictly
        # below the meeting vertex x, on both sides.
        below = np.asarray(from_u[: pos[x]] + from_v, dtype=np.int64)
        slots = self._up_slot[below]
        w = self.weights[slots]
        return int(slots[w == w.max()].max())

    def _cut_side(self, e: int) -> np.ndarray:
        """Mask of the vertices below tree slot ``e`` (pointer doubling).

        After round ``k``, ``side[x]`` says whether one of ``x``'s first
        ``2**k`` ancestors (``x`` included) is the child end of ``e``, and
        ``jump[x]`` is its ``2**k``-th ancestor, pinned at the root.
        """
        up = self._up
        a, b = int(self.edges[e, 0]), int(self.edges[e, 1])
        child = a if up[a] == b else b
        jump = np.where(up >= 0, up, np.arange(self.n, dtype=np.int64))
        side = np.zeros(self.n, dtype=bool)
        side[child] = True
        while True:
            side |= side[jump]
            nxt = jump[jump]
            if np.array_equal(nxt, jump):
                return side
            jump = nxt

    def _best_crossing(self, side: np.ndarray) -> tuple[int, float] | None:
        """Lightest reserve edge crossing the cut as ``(code, weight)``;
        equal weights go to the smallest code, i.e. the smallest pair."""
        codes = self._res_code[: self._res_len]
        u, v = np.divmod(codes, self.n)
        cross = np.flatnonzero(side[u] != side[v])
        if not cross.size:
            return None
        w = self._res_w[cross]
        tied = cross[w == w.min()]
        cell = int(tied[np.argmin(codes[tied])])
        return int(codes[cell]), float(self._res_w[cell])

    def _set_slot(self, e: int, pair: tuple[int, int], w: float) -> int:
        """Rewire slot ``e`` to new endpoints/weight; returns the lowest
        rank the rewrite disturbed (old or new rank of ``e``).

        Slot reuse keeps edge ids dense and stable: the replacement edge
        inherits the evicted edge's id, so ``m`` never changes and the
        ``(weight, edge id)`` tie-breaking stays well-defined.  The rooted
        tree follows: the old edge's child end ``c`` is cut loose, the new
        endpoint below ``c`` becomes its side's root by reversing the
        pointers on its path up to ``c``, and hangs from the other endpoint.
        """
        ou, ov = int(self.edges[e, 0]), int(self.edges[e, 1])
        if self._undo is not None:
            self._undo.append(partial(self._set_slot, e, (ou, ov), float(self.weights[e])))
        up, up_slot = self._up, self._up_slot
        c = ou if up[ou] == ov else ov
        up[c] = up_slot[c] = -1
        a, b = int(pair[0]), int(pair[1])
        path = self._root_path(a)
        if path[-1] != c:
            a, b = b, a
            path = self._root_path(a)
        p = np.asarray(path, dtype=np.int64)
        up_slot[p[1:]] = up_slot[p[:-1]]
        up[p[1:]] = p[:-1]
        up[a], up_slot[a] = b, e
        self.edges[e] = pair
        self.weights[e] = w
        return min(self._shift_rank(e))

    # -- reserve ------------------------------------------------------------
    def _reserve_add(self, code: int, w: float) -> None:
        """Append ``code`` at weight ``w``; capacity doubles when full."""
        k = self._res_len
        if k == self._res_code.shape[0]:
            grow = max(16, k)
            self._res_code = np.concatenate([self._res_code, np.empty(grow, np.int64)])
            self._res_w = np.concatenate([self._res_w, np.empty(grow, np.float64)])
        self._res_code[k] = code
        self._res_w[k] = w
        self._res_cell[code] = k
        self._res_len = k + 1
        if self._undo is not None:
            self._undo.append(partial(self._reserve_del, code))

    def _reserve_del(self, code: int) -> None:
        """Remove ``code``; the last cell moves into the hole."""
        cell = self._res_cell.pop(code)
        w = float(self._res_w[cell])
        last = self._res_len - 1
        if cell != last:
            moved = int(self._res_code[last])
            self._res_code[cell] = moved
            self._res_w[cell] = self._res_w[last]
            self._res_cell[moved] = cell
        self._res_len = last
        if self._undo is not None:
            self._undo.append(partial(self._reserve_add, code, w))

    # -- rollback -----------------------------------------------------------
    def _rollback(self) -> None:
        """Undo the open batch: replay its log backwards.

        A slot entry goes back through :meth:`_set_slot`, which restores
        the ranks and the rooted tree with it; ``parents`` and
        ``generation`` are only written after a batch succeeds.
        """
        log, self._undo = self._undo or [], None
        for undo in reversed(log):
            undo()

    # -- incremental ranks --------------------------------------------------
    @cost_bound(
        work="m + log(m)",
        depth="m + log(m)",
        vars=("m",),
        kind="helper",
        theorem="window shift; m bounds the [old, new] rank window",
    )
    def _shift_rank(self, e: int) -> tuple[int, int]:
        """Re-rank slot ``e`` after ``weights[e]`` changed.

        Maintains ``_ranks`` (slot -> rank), ``_order`` (rank -> slot) and
        ``_sorted_weights`` (= ``weights[_order]``) by shifting only the
        ``[min(old, new), max(old, new)]`` window: two ``searchsorted``
        probes locate the new rank under the ``(weight, slot)`` key, then
        one slice move realigns the window.  ``O(window + log m)``.
        """
        w = float(self.weights[e])
        order, ranks, ws = self._order, self._ranks, self._sorted_weights
        old_rank = int(ranks[e])
        lo_pos = int(np.searchsorted(ws, w, side="left"))
        hi_pos = int(np.searchsorted(ws, w, side="right"))
        # Rank = #{x != e : (w_x, x) < (w, e)}.  The strictly-smaller count
        # must discount e's own stale entry when it sits below lo_pos; the
        # equal-weight run contributes its slots smaller than e.
        less = lo_pos - (1 if old_rank < lo_pos else 0)
        eq_slots = order[lo_pos:hi_pos]
        new_rank = less + int(np.count_nonzero(eq_slots < e))
        if new_rank == old_rank:
            ws[old_rank] = w
            return old_rank, old_rank
        if new_rank > old_rank:
            order[old_rank:new_rank] = order[old_rank + 1 : new_rank + 1].copy()
            ws[old_rank:new_rank] = ws[old_rank + 1 : new_rank + 1].copy()
        else:
            order[new_rank + 1 : old_rank + 1] = order[new_rank:old_rank].copy()
            ws[new_rank + 1 : old_rank + 1] = ws[new_rank:old_rank].copy()
        order[new_rank] = e
        ws[new_rank] = w
        lo, hi = (old_rank, new_rank) if old_rank < new_rank else (new_rank, old_rank)
        ranks[order[lo : hi + 1]] = np.arange(lo, hi + 1, dtype=np.int64)
        return old_rank, new_rank

    # -- dendrogram repair ----------------------------------------------------
    @cost_bound(
        work="n + (m - k) * log(m)",
        depth="n + (m - k) * log(m)",
        vars=("n", "m", "k"),
        kind="helper",
        theorem="Lemma 3.2 (low components survive) + Lemma 4.2 (root glue); "
        "O(n) low-forest components, RCTT (Section 4.2) on the contracted high tree",
    )
    def _recompute_suffix(self, lo: int) -> None:
        """Recompute the dendrogram above rank ``lo``, reusing everything
        strictly below it.

        The low forest's components contract the high edges to a tree of
        ``m - lo`` edges.  ``high_arr`` is rank-ascending, so that tree's
        ``(weight, local index)`` order is the global ``(weight, slot)``
        order, and its parents (any exact solver's; RCTT's here) map back
        through ``high_arr`` bit-identically.
        """
        order = self._order
        high_arr = order[lo:]
        self.last_update_size = int(high_arr.size)
        self.total_recomputed += int(high_arr.size)
        if not high_arr.size:
            # A fully-low window keeps everything; the max edge stays root.
            return

        n_comp = self.n
        high_edges = self.edges[high_arr]
        roots: np.ndarray | None = None
        if lo:
            low_arr = order[:lo]
            graph = coo_matrix(
                (
                    np.ones(lo, dtype=np.int8),
                    (self.edges[low_arr, 0], self.edges[low_arr, 1]),
                ),
                shape=(self.n, self.n),
            )
            n_comp, labels = connected_components(graph, directed=False)
            labels = labels.astype(np.int64)
            # Component roots: low_arr is rank-ascending and fancy-index
            # assignment keeps the last write, so roots[c] is component
            # c's max-rank low edge (its local root).
            comp_of_low = labels[self.edges[low_arr, 0]]
            roots = np.full(int(n_comp), -1, dtype=np.int64)
            roots[comp_of_low] = low_arr
            # Contract: supervertex labels replace raw endpoints
            # (isolated vertices keep singleton components).
            high_edges = labels[high_edges]

        contracted = WeightedTree(
            int(n_comp), high_edges, self.weights[high_arr], validate=False
        )
        self.parents[high_arr] = high_arr[rctt(contracted)]

        if roots is not None:
            pend = np.flatnonzero(roots >= 0)
            if pend.size:
                # Glue (Lemma 4.2): each component root adopts the first
                # high edge incident to its supervertex.  high_arr is
                # rank-ascending and each edge lists endpoint 0 before 1,
                # so the first occurrence in the flattened endpoint stream
                # is exactly what the reference scan loop picks
                # (glue_scan_reference; bit-identity pinned in tests).
                flat = high_edges.reshape(-1)
                uniq, first = np.unique(flat, return_index=True)
                # The maintained tree is connected, so every low component
                # is incident to at least one high edge: pend \subseteq uniq.
                pos = np.searchsorted(uniq, pend)
                self.parents[roots[pend]] = high_arr[first[pos] // 2]
