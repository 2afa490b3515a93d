"""Array-based union-find with path compression and union by size.

Used by SeqUF (Kruskal-style merging), ParUF (Alg. 5's ``F``), the MST
algorithms, and the brute-force test oracle.  Operation counters feed the
work accounting (each find charges its true traversal length).

Race instrumentation: when a :mod:`repro.checkers.access` recorder is
installed, every ``parent``/``size`` cell touched is reported to the open
task's shadow sets -- including the ``parent`` writes of path halving, so
two same-round tasks whose finds overlap are detected.  The statistics
counters (``finds``/``find_steps``/``unions``) are exempt by design: a
real implementation keeps them in per-thread or atomic counters.
"""

from __future__ import annotations

import numpy as np

from repro.checkers import access as _access
from repro.checkers.bounds import cost_bound

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint sets over elements ``0..n-1``.

    ``find`` uses path halving (one-pass compression); ``union`` is by size
    and returns the surviving root, which is what the dendrogram algorithms
    key their per-cluster state on.
    """

    __slots__ = ("_parent", "_size", "n", "num_sets", "finds", "find_steps", "unions")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"element count must be non-negative, got {n}")
        self.n = n
        self._parent = np.arange(n, dtype=np.int64)
        self._size = np.ones(n, dtype=np.int64)
        self.num_sets = n
        self.finds = 0
        self.find_steps = 0
        self.unions = 0

    @cost_bound(work="log(n)", depth="log(n)", vars=("n",), kind="structure_op",
                theorem="path halving + union by size: O(log n) worst-case find")
    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with path halving)."""
        parent = self._parent
        self.finds += 1
        steps = 0
        if _access.RECORDER is None:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
                steps += 1
        else:
            # Shadow-recorded variant: identical traversal and compression,
            # with every parent-cell read/write reported.
            while True:
                p = int(parent[x])
                _access.record_read(self, ("parent", int(x)))
                if p == x:
                    break
                gp = int(parent[p])
                _access.record_read(self, ("parent", p))
                parent[x] = gp
                _access.record_write(self, ("parent", int(x)))
                x = gp
                steps += 1
        self.find_steps += steps
        return int(x)

    @cost_bound(work="log(n)", depth="log(n)", vars=("n",), kind="structure_op",
                theorem="union by size: O(log n) worst case (two finds + O(1) link)")
    def union(self, a: int, b: int) -> int:
        """Merge the sets containing ``a`` and ``b``; return the new root.

        ``a`` and ``b`` may be arbitrary members (roots are found first).
        Raises ``ValueError`` if they are already in the same set -- for tree
        edges this indicates a cycle, which is always a caller bug.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            raise ValueError(f"union of already-connected elements {a} and {b}")
        size = self._size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        if _access.RECORDER is not None:
            _access.record_read(self, ("size", ra))
            _access.record_read(self, ("size", rb))
            _access.record_write(self, ("parent", rb))
            _access.record_write(self, ("size", ra))
        self._parent[rb] = ra
        size[ra] += size[rb]
        self.unions += 1
        self.num_sets -= 1
        return int(ra)

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def set_size(self, x: int) -> int:
        """Number of elements in ``x``'s set."""
        root = self.find(x)
        if _access.RECORDER is not None:
            _access.record_read(self, ("size", root))
        return int(self._size[root])

    @cost_bound(work="k * log(n)", depth="log(n)", vars=("k", "n"), kind="structure_op",
                theorem="k independent finds run as one parallel batch of "
                "pointer-jumping rounds; each round is a vectorized gather")
    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Representatives of every element of ``xs``, as one batch.

        Semantically equivalent to ``[self.find(x) for x in xs]`` but
        vectorized: all queries chase parent pointers simultaneously, one
        numpy gather per round, and finish with full path compression
        (``parent[x] = root(x)``) for every queried element.  The
        ``finds``/``find_steps`` statistics are charged in aggregate (one
        find per query, one step per hop actually taken).

        Under an installed shadow-access recorder this falls back to
        per-element :meth:`find` so the recorded read/write sets stay exact.
        """
        xs = np.asarray(xs, dtype=np.int64)
        if _access.RECORDER is not None:
            return np.fromiter(
                (self.find(int(x)) for x in xs), dtype=np.int64, count=xs.size
            )
        self.finds += xs.size
        if xs.size == 0:
            return np.empty(0, dtype=np.int64)
        parent = self._parent
        roots = parent[xs]
        while True:
            nxt = parent[roots]
            moving = nxt != roots
            hops = int(np.count_nonzero(moving))
            if hops == 0:
                break
            self.find_steps += hops
            roots = nxt
        parent[xs] = roots
        return roots

    def union_groups(self, roots: np.ndarray, group: np.ndarray) -> None:
        """Merge distinct current roots by dense ``group`` label, in one write.

        The bulk form of :meth:`union` for a batch whose components are
        already known (``group[i]`` is the component of ``roots[i]``, ids
        ``0..g-1``): each group's largest root survives, and ``num_sets``
        and ``unions`` move by the ``roots.size - g`` roots linked away.
        Charges no find statistics and reports nothing to a shadow-access
        recorder (no recorded task calls it).
        """
        r = roots.size
        g = int(group.max()) + 1 if r else 0
        size = self._size[roots]
        head = np.zeros(g, dtype=np.int64)  # per group: max (size, position) key
        np.maximum.at(head, group, size * r + np.arange(r, dtype=np.int64))
        head = roots[head % r]
        total = np.zeros(g, dtype=np.int64)
        np.add.at(total, group, size)
        self._parent[roots] = head[group]
        self._size[head] = total
        self.unions += r - g
        self.num_sets -= r - g
