"""Batch-dynamic single-linkage dendrograms: edge inserts/deletes + weight updates.

The paper closes with the open question of maintaining the SLD under
updates; the same authors' follow-up ("Fully-Dynamic Parallel Algorithms
for Single-Linkage Clustering", arXiv 2506.18384) shows the shape of the
answer: maintain a minimum spanning tree of the evolving graph and repair
only the part of the dendrogram the MST change can reach.  This module
implements that shape sequentially on flat arrays, built on the source
paper's SLD-Merge facts (see :mod:`repro.core.merge`):

* **Insert (cycle rule).**  A new edge ``(u, v, w)`` closes one cycle with
  the tree path ``u..v``.  If ``w`` beats the path maximum, the maximum is
  evicted to the *reserve* (the non-tree edge set) and the new edge takes
  its slot; otherwise the new edge itself goes to the reserve and the
  dendrogram is untouched.
* **Delete (cut rule).**  Deleting a reserve edge is free.  Deleting a
  tree edge splits the tree in two; the lightest reserve edge crossing the
  cut is promoted into the vacated slot (:class:`~repro.errors.NotConnectedError`
  if none exists -- the whole batch rolls back, leaving the engine intact).
* **Dendrogram repair (splice).**  A *slot rewrite* deletes slot ``e``'s
  edge ``f`` and inserts an edge ``g`` into the same slot at ``g``'s own
  rank.  Each rewrite is spliced into the parent array where it happens,
  and only spines move (the source paper's SLD-Merge, Section 3.1,
  Lemma 3.4 / Theorem 3.5):

  - *delete f*: only ``f``'s node children and strict ancestors get new
    parents.  Each lies on one side of ``f``'s cut.  An ancestor moves to
    the next ancestor above it on its side, a child to the lowest ancestor
    on its side, and the top ancestor of each side becomes a root;
  - *insert g = (u, v)*: the top nodes of ``u``'s and ``v``'s clusters
    below ``g``'s rank hang from ``g``.  Their spines above it are merged
    by rank, and ``g`` hangs from the lower of the two heads; a parent
    changes only where the merged order switches spines.

  Every other node keeps its parent: its cluster, and the edges leaving
  it, do not change.  A rewrite visits at most ``3h + 2`` nodes (``h``
  the dendrogram height) on top of the cut side the cut and cycle rules
  compute, and writes only the parents that change.

The tree is held as a **rooted parent array**: ``_up[x]`` is ``x``'s
parent vertex (``-1`` at the root) and ``_up_slot[x]`` the slot of that
edge.  A path maximum walks both endpoints up to their meeting vertex
(``O(depth)``); rewiring a slot reverses the parent pointers on one root
path (``O(depth)``); the side of a cut is marked by pointer doubling over
``_up`` (``O(n log depth)``, vectorized).  The reserve is two flat arrays
of pair codes ``u * n + v`` (``u < v``) and weights plus a code -> cell
dict: membership, add and delete are ``O(1)``, and the lightest crossing
edge is one masked minimum.  Spines are walked over ``_plist``, a Python
list mirror of ``parents`` that the first splice makes (a numpy scalar
read costs ~3x a list read), and every parent write goes to both.  While a batch is open every slot
rewrite, parent write and reserve write logs its inverse, so a rollback
replays only what the batch touched.

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
from itertools import repeat

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order

from repro.checkers.bounds import cost_bound
from repro.core.rctt import rctt
from repro.dendrogram.structure import Dendrogram
from repro.errors import InvalidGraphError, InvalidWeightsError, NotConnectedError
from repro.trees.mst import mst_ids
from repro.trees.weights import ranks_of
from repro.trees.wtree import WeightedTree, _adopt_ranks

__all__ = ["DynamicSLD"]

#: Normalized ``(min, max)`` endpoint pair -- the identity of a graph edge.
Pair = tuple[int, int]


def _norm_pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


def _corrupt(e: int) -> RuntimeError:
    """A spine walk at slot ``e`` ran past ``m`` nodes: ``parents`` is no
    longer a forest of rank-ascending paths (an engine bug, not an input
    error).  Bounding the walks turns that into an error, not a hang."""
    return RuntimeError(f"dendrogram spine at slot {e} does not end: parents are corrupt")


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
        Dendrogram nodes the most recent update's repair visited: per
        slot rewrite, the old edge's strict ancestors and node children,
        the slot itself, and the nodes of the new edge's two spines below
        the point where they join the old edge's ancestors (``m`` for the
        initial build, ``0`` for a no-op or a reserve-only batch).
    total_recomputed:
        Running sum of ``last_update_size`` since construction.
    """

    def __init__(self, tree: WeightedTree) -> None:
        self.n = tree.n
        self.edges = tree.edges.copy()
        self.weights = tree.weights.copy()
        self.m = self.edges.shape[0]
        self.parents = rctt(tree)
        #: List mirror of ``parents`` for the spine walks.  The first splice
        #: fills it, so an engine that never rewrites a slot never pays it.
        self._plist: list[int] = []
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
        self.total_recomputed = self.m

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
        """Serving snapshot of the current dendrogram, generation-stamped.

        The tree it is built from carries a copy of the engine's ranks, so
        the build does not sort the weights again.
        """
        from repro.dendrogram.snapshot import build_snapshot

        tree = _adopt_ranks(self.tree(), self._ranks.copy())
        return build_snapshot(Dendrogram(tree, self.parents.copy()), generation=self.generation)

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
        work="m + n * log(n) + h",
        depth="m + n * log(n) + h",
        vars=("m", "n", "h"),
        kind="structure_op",
        theorem="O(log m) early-out when no rank moves; else an O(m) rank-window "
        "shift, the O(n log depth) cut side and one O(h) spine splice (Section 3.1)",
    )
    def update_weight(self, e: int, new_weight: float) -> int:
        """Set ``weights[e] = new_weight``; return #dendrogram nodes visited.

        ``e`` addresses a tree slot (reserve edges are updated by
        delete + insert).  Same-value updates are free no-ops; updates
        that move no rank skip the repair entirely
        (``last_update_size == 0``) but still bump :attr:`generation`,
        because the merge heights changed.  A weight *increase* while the
        reserve is non-empty re-certifies the cycle rule: if a reserve
        edge now beats slot ``e`` across its cut, it takes the slot and
        ``e``'s edge goes to the reserve at the new weight.  Either way
        the update is one slot rewrite, spliced once.
        """
        if not 0 <= e < self.m:
            raise ValueError(f"edge id {e} out of range [0, {self.m})")
        w = float(new_weight)
        if not np.isfinite(w):
            raise InvalidWeightsError(f"weight must be finite, got {new_weight}")
        if w == float(self.weights[e]):
            return self._settle(0)
        self.generation += 1
        side: np.ndarray | None = None
        if w > float(self.weights[e]) and self._res_len:
            side = self._cut_side(e)
            visited = self._recertify_slot(e, w, side)
            if visited:
                return self._settle(visited)
        self.weights[e] = w
        old_rank, new_rank = self._shift_rank(e)
        if old_rank == new_rank:
            return self._settle(0)
        return self._settle(self._splice(e, self._cut_side(e) if side is None else side))

    @cost_bound(
        work="b * (n * log(n) + s + h)",
        depth="b * (n * log(n) + s + h)",
        vars=("n", "b", "s", "h"),
        kind="structure_op",
        theorem="insert = cycle rule, an O(depth) path max on the rooted tree; "
        "delete = cut rule, O(n log depth + s) vectorized cut side and crossing "
        "scan (s = reserve size), O(1) on a reserve edge; each slot rewrite is "
        "an O(m) rank-window shift plus one O(h) spine splice (Section 3.1, "
        "arXiv 2506.18384); rollback replays only the batch's undo log",
    )
    def apply_batch(
        self,
        inserts: Iterable[tuple[int, int, float]] = (),
        deletes: Iterable[tuple[int, int]] = (),
    ) -> int:
        """Insert/delete graph edges; return #dendrogram nodes visited.

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
        * the dendrogram is spliced at every slot rewrite, so the return
          value is positive exactly when some tree slot changed;
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

        visited = 0
        self._undo = []
        try:
            for u, v, w in ins:
                visited += self._insert_edge(u, v, w)
            for u, v in dels:
                visited += self._delete_edge(u, v)
        except Exception:
            self._rollback()
            raise
        finally:
            self._undo = None
        if visited:
            self.generation += 1
        return self._settle(visited)

    def _settle(self, visited: int) -> int:
        """Record the finished update's repair size and return it."""
        self.last_update_size = visited
        self.total_recomputed += visited
        return visited

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

    def _insert_edge(self, u: int, v: int, w: float) -> int:
        """Cycle rule; returns the dendrogram nodes visited (0: reserve only)."""
        code = self._code(u, v)
        if self._tree_slot(u, v) >= 0 or code in self._res_cell:
            raise ValueError(f"edge {_norm_pair(u, v)} is already in the graph")
        f = self._tree_path_max(u, v)
        if w < float(self.weights[f]):
            return self._swap_in(f, (u, v), w, self._cut_side(f))
        # Ties keep the incumbent: the tree stays a valid MST either way.
        self._reserve_add(code, w)
        return 0

    def _delete_edge(self, u: int, v: int) -> int:
        """Cut rule; returns the dendrogram nodes visited (0: reserve only)."""
        code = self._code(u, v)
        if code in self._res_cell:
            self._reserve_del(code)
            return 0
        f = self._tree_slot(u, v)
        if f < 0:
            raise ValueError(f"edge {_norm_pair(u, v)} is not in the graph")
        side = self._cut_side(f)
        best = self._best_crossing(side)
        if best is None:
            raise NotConnectedError(
                f"deleting edge {_norm_pair(u, v)} disconnects the graph"
            )
        best_code, bw = best
        self._reserve_del(best_code)
        return self._splice(f, side, divmod(best_code, self.n), bw)

    def _recertify_slot(self, e: int, w: float, side: np.ndarray) -> int:
        """Cycle-rule re-check before slot ``e``'s weight rises to ``w``.

        If the lightest reserve edge across ``e``'s cut (``side``) is
        strictly lighter than ``w``, it takes the slot and ``e``'s edge
        enters the reserve at ``w``; returns the nodes the splice visited,
        or 0 when the incumbent stays.
        """
        best = self._best_crossing(side)
        if best is None or best[1] >= w:
            return 0
        best_code, bw = best
        self._reserve_del(best_code)
        return self._swap_in(e, divmod(best_code, self.n), bw, side, w)

    def _swap_in(
        self,
        e: int,
        pair: tuple[int, int],
        w: float,
        side: np.ndarray,
        evicted_w: float | None = None,
    ) -> int:
        """Put ``pair`` at weight ``w`` into slot ``e`` and move the edge it
        held to the reserve (at ``evicted_w``, default its current weight);
        returns the nodes the splice visited."""
        evicted = self._code(int(self.edges[e, 0]), int(self.edges[e, 1]))
        if evicted_w is None:
            evicted_w = float(self.weights[e])
        visited = self._splice(e, side, pair, w)
        self._reserve_add(evicted, evicted_w)
        return visited

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
        ``jump[x]`` is its ``2**k``-th ancestor, pinned at the root.  A
        round that marks nothing new ends it: the marked vertices are
        those within ``2**k - 1`` of the child end, and a vertex deeper
        below it would put one of its ancestors in the range just missed.
        So the rounds follow the height of the subtree below ``e``.
        """
        up = self._up
        a, b = int(self.edges[e, 0]), int(self.edges[e, 1])
        child = a if up[a] == b else b
        jump = np.where(up >= 0, up, np.arange(self.n, dtype=np.int64))
        side = np.zeros(self.n, dtype=bool)
        side[child] = True
        marked = 1
        while True:
            side |= side[jump]
            now = int(np.count_nonzero(side))
            if now == marked:
                return side
            marked = now
            jump = jump[jump]

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

    def _set_slot(self, e: int, pair: tuple[int, int], w: float) -> None:
        """Rewire slot ``e`` to new endpoints/weight and re-rank it.

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
        self._shift_rank(e)

    # -- dendrogram repair ----------------------------------------------------
    @cost_bound(
        work="n + h",
        depth="n + h",
        vars=("n", "h"),
        kind="helper",
        theorem="Section 3.1, Lemma 3.4 / Theorem 3.5: only the characteristic "
        "spines change; O(h) list walks, an O(n) child scan and leaf-parent "
        "probes, and a stable sort of two rank-sorted runs (an O(h) merge)",
    )
    def _splice(
        self,
        e: int,
        side: np.ndarray,
        pair: tuple[int, int] | None = None,
        w: float = 0.0,
    ) -> int:
        """Rewrite slot ``e`` and repair the dendrogram; returns nodes visited.

        ``side`` marks the vertices below slot ``e``'s current edge ``f``
        (:meth:`_cut_side`).  With ``pair`` the slot takes that edge at
        weight ``w`` (:meth:`_set_slot`); without, the caller has already
        moved ``e``'s weight and rank and ``f`` itself is re-inserted.
        """
        if not self._plist:
            self._plist = self.parents.tolist()
        plist, ranks, edges = self._plist, self._ranks, self.edges
        # Delete f.  Its strict ancestors, bottom-up, are rank-ascending.
        chain: list[int] = []
        step = chain.append
        x = e
        for _ in repeat(None, self.m):
            p = plist[x]
            if p == x:
                break
            step(p)
            x = p
        else:
            raise _corrupt(e)
        anc = np.fromiter(chain, dtype=np.int64, count=len(chain))
        anc_below = side[edges[:, 0][anc]]
        # Per side, f's former ancestors: the spine above f's child there.
        parts = (anc[~anc_below], anc[anc_below])
        below_f = np.flatnonzero(self.parents == e)
        kids: list[int] = below_f[below_f != e].tolist()
        moved: list[int] = []
        to: list[int] = []
        for part in parts:
            if part.size:
                up_next = np.append(part[1:], part[-1])
                switch = self.parents[part] != up_next
                moved += part[switch].tolist()
                to += up_next[switch].tolist()
        # Each side's new root: its top former ancestor, else f's child there.
        roots = [part[-1] for part in parts if part.size]
        for k in kids:
            part = parts[int(side[edges[k, 0]])]
            moved.append(k)
            to.append(int(part[0]) if part.size else k)
            if not part.size:
                roots.append(k)
        self._relink(moved, to)

        if pair is not None:
            self._set_slot(e, pair, w)
        # Insert g = (u, v) at rank r.  Each endpoint's spine is walked up
        # to the first former ancestor of f or to its side's root; above a
        # former ancestor it goes on as that side's part.
        r = int(ranks[e])
        stop = np.zeros(self.m, dtype=bool)
        stop[anc] = True
        stop[roots] = True
        joined = stop.tobytes()
        tops: list[int] = []
        highs: list[np.ndarray] = []
        walked = 0
        for end in (int(edges[e, 0]), int(edges[e, 1])):
            y = self._lowest_slot_at(end, e)
            if y < 0:
                continue
            walk: list[int] = []
            step = walk.append
            for _ in repeat(None, self.m):
                if joined[y]:
                    break
                step(y)
                y = plist[y]
            else:
                raise _corrupt(e)
            part = parts[int(side[end])]
            if part.size:
                part = part[int(np.searchsorted(ranks[part], ranks[y])) :]
            else:
                step(y)  # the side's root, f's child on this side
            walked += len(walk)
            spine = np.concatenate([np.fromiter(walk, dtype=np.int64, count=len(walk)), part])
            cut = int(np.searchsorted(ranks[spine], r))
            if cut:
                tops.append(int(spine[cut - 1]))
            highs.append(spine[cut:])
        # The tops below r hang from g, the spines above r merge, and g
        # hangs from the lower head.
        moved, to, head = self._merge(highs)
        self._relink([*moved, *tops, e], [*to, *([e] * len(tops)), head if head >= 0 else e])
        return int(anc.size) + len(kids) + walked + 1

    def _merge(self, spines: list[np.ndarray]) -> tuple[list[int], list[int], int]:
        """Merge rank-sorted spines by rank (SLD-Merge, Theorem 3.5).

        Returns the nodes whose parent changes, their new parents, and the
        merged order's lowest node (``-1`` if there is none).  A parent
        changes only where the merged order switches spines; the top node
        was its spine's root and stays one.  A stable sort of two sorted
        runs is a linear merge.
        """
        if not spines:
            return [], [], -1
        both = np.concatenate(spines)
        if not both.size:
            return [], [], -1
        by_rank = np.argsort(self._ranks[both], kind="stable")
        merged = both[by_rank]
        second = by_rank >= spines[0].size
        switch = np.flatnonzero(second[1:] != second[:-1])
        return merged[switch].tolist(), merged[switch + 1].tolist(), int(merged[0])

    def _lowest_slot_at(self, x: int, skip: int) -> int:
        """Lowest-rank tree slot at vertex ``x`` other than ``skip``, or
        ``-1``: ``x``'s leaf parent in the dendrogram without ``skip``."""
        up, up_slot = self._up, self._up_slot
        slots = up_slot[up == x]
        if up[x] >= 0:
            slots = np.append(slots, up_slot[x])
        slots = slots[slots != skip]
        if not slots.size:
            return -1
        return int(slots[np.argmin(self._ranks[slots])])

    def _relink(self, nodes: list[int], targets: list[int]) -> None:
        """``parents[nodes] = targets`` in the array and its list mirror;
        an open batch logs the old values first."""
        if not nodes:
            return
        plist = self._plist
        if self._undo is not None:
            self._undo.append(partial(self._relink, nodes, [plist[x] for x in nodes]))
        for x, p in zip(nodes, targets):
            plist[x] = p
        self.parents[nodes] = targets

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
        the ranks and the rooted tree with it; a parent entry restores the
        parents one splice wrote; ``generation`` is only written after a
        batch succeeds.
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
