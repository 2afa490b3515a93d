"""The batched dendrogram query engine over snapshot slabs.

:class:`QueryEngine` answers the serving-layer queries the ROADMAP's
dendrogram-as-a-service item calls for, each vectorized over its whole
batch so a million queries cost a handful of numpy passes.  Every query
reads the snapshot's leaf order (see :mod:`repro.dendrogram.snapshot`):
vertices ``u`` and ``v`` merge at the highest-rank gap between their
leaf positions, and a flat cluster is a run of leaves whose gaps are all
merged.

* :meth:`~QueryEngine.merge_heights` / :meth:`~QueryEngine.merge_nodes`
  -- cophenetic queries in ``O(1)`` per pair: one range maximum, i.e.
  two gathers into the sparse table of gap ranks;
* :meth:`~QueryEngine.cluster_of` -- the cluster containing each queried
  vertex at threshold ``t``, ``O(log n)`` per vertex (two descents of the
  table from the vertex's leaf position, then one range maximum),
  returned as stable cluster *keys* (see below);
* :meth:`~QueryEngine.cut_at` / :meth:`~QueryEngine.cut_k` -- full flat
  clusterings by threshold or target cluster count, one ``O(n)`` pass
  along the leaf order per distinct cut and ``O(1)`` afterwards thanks
  to an LRU cut-cache.

Thresholds work in rank space: an edge has weight ``<= t`` exactly when
its rank is below the number of weights ``<= t``, found by an
``O(log m)`` binary search over ``by_rank``.

Cluster keys vs. labels
-----------------------
``cluster_of`` answers point queries without materializing a full cut, so
it cannot number clusters densely; instead it returns *keys* that are
stable across calls at the same threshold: the dendrogram node (edge id)
whose subtree is the cluster, or ``m + v`` for a still-singleton vertex
``v``.  ``cut_at`` numbers the same clusters by their smallest member
vertex, so ``cut_at(t)[vs]`` and
``canonical_labels(cluster_of(arange(n), t))[vs]`` agree, and ``cut_at``
is bit-identical to :func:`repro.dendrogram.linkage.cut_height`.

The engine never writes to the snapshot slabs, so it serves read-only
``np.memmap`` views (many processes, one artifact) as-is.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict

import numpy as np

from repro.dendrogram.snapshot import DendrogramSnapshot, build_snapshot
from repro.dendrogram.structure import Dendrogram

__all__ = ["QueryEngine"]

#: Cut-cache entries kept per engine by default.
DEFAULT_CUT_CACHE_SIZE = 32


class QueryEngine:
    """Vectorized batch queries over a :class:`DendrogramSnapshot`.

    Parameters
    ----------
    snapshot:
        The slabs to serve (in-memory or mmap-loaded).
    cut_cache_size:
        Number of distinct cuts (thresholds and k values together) to keep
        in the LRU cut-cache; ``0`` disables caching.
    """

    def __init__(
        self, snapshot: DendrogramSnapshot, cut_cache_size: int = DEFAULT_CUT_CACHE_SIZE
    ) -> None:
        self.snapshot = snapshot
        self._cut_cache: OrderedDict[tuple[str, float | int], np.ndarray] = OrderedDict()
        self._cut_cache_size = int(cut_cache_size)
        # Plain ndarray views of the slabs (no copy): gathers from an
        # np.memmap subclass pay its wrapping on every call.
        self._pos = np.asarray(snapshot.pos)
        self._by_rank = np.asarray(snapshot.by_rank)
        self._weights = np.asarray(snapshot.weights)
        self._table = np.asarray(snapshot.table)
        self._flat = self._table.reshape(-1)
        self._gaps = np.int64(snapshot.m)

    @classmethod
    def from_dendrogram(
        cls, dend: Dendrogram, cut_cache_size: int = DEFAULT_CUT_CACHE_SIZE
    ) -> "QueryEngine":
        """Build the slabs in memory and serve them (no file round trip)."""
        return cls(build_snapshot(dend), cut_cache_size=cut_cache_size)

    # -- structure ---------------------------------------------------------
    @property
    def n(self) -> int:
        return self.snapshot.n

    @property
    def m(self) -> int:
        return self.snapshot.m

    @property
    def cached_cuts(self) -> int:
        """Number of cuts currently in the LRU cache."""
        return len(self._cut_cache)

    @property
    def generation(self) -> int:
        """The served snapshot's generation stamp (``-1`` = unstamped)."""
        return self.snapshot.generation

    def is_stale(self, current: int) -> bool:
        """Whether the served snapshot predates ``current``.

        ``current`` is a live :attr:`repro.core.dynamic.DynamicSLD.
        generation` counter.  Unstamped snapshots (``generation == -1``,
        i.e. built from a static dendrogram) are never stale.
        """
        return self.generation >= 0 and self.generation < int(current)

    # -- the leaf order ----------------------------------------------------
    def _range_max(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Largest gap rank in each ``[lo, hi)`` gap range (``hi > lo``)."""
        k = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo)), exact below 2**53
        row = k * self._gaps
        a = np.take(self._flat, row + lo)
        b = np.take(self._flat, row + hi - np.left_shift(1, k))
        return np.maximum(a, b)

    def _rank_limit(self, threshold: float) -> int:
        """Highest rank merged at ``threshold``: an edge's weight is <= it
        exactly when its rank is <= the result (``-1``: nothing merges)."""
        weights = self._weights
        above = bisect.bisect_left(
            self._by_rank, True, key=lambda e: not weights[e] <= threshold
        )
        return above - 1

    # -- cophenetic queries ------------------------------------------------
    def _merge_ranks(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Rank of each pair's merge node, and the mask of ``u == v`` pairs
        (``None`` when there are none; their ranks are placeholders)."""
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs must have shape (k, 2), got {pairs.shape}")
        n = self.n
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            bad = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)][0]
            raise ValueError(
                f"vertices must lie in [0, {n}), got {int(bad[0])}, {int(bad[1])}"
            )
        if n == 1:
            return np.zeros(pairs.shape[0], dtype=np.int64), np.ones(pairs.shape[0], bool)
        at = np.take(self._pos, pairs)
        lo = np.minimum(at[:, 0], at[:, 1])
        hi = np.maximum(at[:, 0], at[:, 1])
        same = lo == hi
        if not same.any():
            return self._range_max(lo, hi), None
        # Any non-empty range stands in for u == v; the caller masks it.
        return self._range_max(np.where(same, 0, lo), np.where(same, 1, hi)), same

    def merge_nodes(self, pairs: np.ndarray) -> np.ndarray:
        """Dendrogram node (edge id) where each ``(u, v)`` pair merges.

        One range maximum over the gap ranks between the two leaf
        positions per pair.  ``u == v`` pairs report ``-1``.
        """
        ranks, same = self._merge_ranks(pairs)
        if self.m == 0:
            return np.full(ranks.shape[0], -1, dtype=np.int64)
        nodes = np.take(self._by_rank, ranks).astype(np.int64)
        if same is not None:
            nodes[same] = -1
        return nodes

    def merge_heights(self, pairs: np.ndarray) -> np.ndarray:
        """Cophenetic distance of each ``(u, v)`` pair (``0.0`` when equal)."""
        ranks, same = self._merge_ranks(pairs)
        if self.m == 0:
            return np.zeros(ranks.shape[0], dtype=np.float64)
        heights = np.take(self._weights, np.take(self._by_rank, ranks))
        if same is not None:
            heights[same] = 0.0
        return heights

    # -- point-in-cluster queries ------------------------------------------
    def cluster_of(self, vs: np.ndarray, threshold: float) -> np.ndarray:
        """Stable cluster key of each queried vertex at ``threshold``.

        The key is the top dendrogram node (edge id) still merged at the
        threshold, or ``m + v`` for a singleton vertex.  Two descents of
        the sparse table find the run of merged gaps around the vertex's
        leaf position and one range maximum names its top node:
        ``O(log n)`` per queried vertex, no full-cut materialization.
        """
        vs = np.asarray(vs, dtype=np.int64)
        if vs.ndim != 1:
            raise ValueError(f"vs must be a 1-D vertex array, got shape {vs.shape}")
        n = self.n
        if vs.size and (vs.min() < 0 or vs.max() >= n):
            bad = vs[(vs < 0) | (vs >= n)][0]
            raise ValueError(f"vertices must lie in [0, {n}), got {int(bad)}")
        keys = self.m + vs  # singleton key; overwritten where merged
        if self.m == 0:
            return keys
        limit = self._rank_limit(float(threshold))
        if limit < 0:
            return keys
        # The run is leaf positions left .. right: every gap between them is
        # merged, and the gaps just outside (if any) are not.
        right = np.take(self._pos, vs).astype(np.int64)
        left = right.copy()
        for k in range(self._table.shape[0] - 1, -1, -1):
            row, step = self._table[k], 1 << k
            # Step over the next 2**k gaps on each side if all are merged.
            # A window that runs past an end of the order holds the max of
            # the gaps it does cover (rows are cut off at the last gap, and
            # a clipped gather reads the first window), so a step past an
            # end means every gap up to it is merged: clamp once, below.
            right += step * (np.take(row, right, mode="clip") <= limit)
            left -= step * (np.take(row, left - step, mode="clip") <= limit)
        np.minimum(right, self._gaps, out=right)
        np.maximum(left, 0, out=left)
        merged = left < right
        top = self._range_max(np.where(merged, left, 0), np.where(merged, right, 1))
        return np.where(merged, np.take(self._by_rank, top), keys)

    # -- flat cuts ---------------------------------------------------------
    def cut_at(self, threshold: float) -> np.ndarray:
        """Flat cluster labels after merging every edge with weight <= threshold.

        Bit-identical to :func:`repro.dendrogram.linkage.cut_height`
        (clusters numbered by smallest member vertex).  The result is a
        read-only array owned by the LRU cut-cache; copy before mutating.
        """
        return self._cached_cut(("t", float(threshold)))

    def cut_k(self, k: int) -> np.ndarray:
        """Flat cluster labels with exactly ``k`` clusters.

        Bit-identical to :func:`repro.dendrogram.linkage.cut_k`: the
        ``n - k`` lowest-rank edges are merged.
        """
        k = int(k)
        if not 1 <= k <= self.n:
            raise ValueError(f"cluster count k must be in [1, {self.n}], got {k}")
        return self._cached_cut(("k", k))

    def _cached_cut(self, key: tuple[str, float | int]) -> np.ndarray:
        cached = self._cut_cache.get(key)
        if cached is not None:
            self._cut_cache.move_to_end(key)
            return cached
        if key[0] == "t":
            labels = self._cut(self._rank_limit(float(key[1])))
        else:
            # Exactly k clusters: merge the n - k lowest-rank edges.
            labels = self._cut(self.n - int(key[1]) - 1)
        if self._cut_cache_size > 0:
            labels.flags.writeable = False
            self._cut_cache[key] = labels
            while len(self._cut_cache) > self._cut_cache_size:
                self._cut_cache.popitem(last=False)
        return labels

    def _cut(self, limit: int) -> np.ndarray:
        """Labels after merging every rank <= ``limit``: the leaf order
        breaks at every gap above it, and each run is one cluster."""
        n = self.n
        starts = np.flatnonzero(np.concatenate(([True], self._table[0] > limit)))
        leaves = np.empty(n, dtype=np.int64)
        leaves[self._pos] = np.arange(n, dtype=np.int64)
        smallest = np.minimum.reduceat(leaves, starts)
        # Number the runs by their smallest member vertex.
        first = np.zeros(n, dtype=bool)
        first[smallest] = True
        run_label = np.cumsum(first)[smallest] - 1
        return np.repeat(run_label, np.diff(starts, append=n))[self._pos]
