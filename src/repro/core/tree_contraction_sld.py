"""SLD-TreeContraction: the optimal merge-based algorithm (Section 3.2).

Replays the tree-contraction schedule of
:func:`repro.contraction.schedule.build_rc_tree`, maintaining one spine
container per live cluster:

* ``mode="heap"`` -- parallel binomial heaps with ``filter_and_insert`` and
  ``meld`` (Algorithms 3-4); ``O(n log h)`` work, polylog depth.  Nodes
  filtered out of a heap are *protected* (Claims 3.8/3.9): their parents
  are finalized immediately by chaining the sorted filtered set under the
  merging edge.
* ``mode="list"`` -- the sub-optimal Section 3.2.1 variant: the spine is a
  plain sorted list and every merge is a full ``O(h)`` list merge/split.
  Same output, ``O(nh)`` work -- the ablation baseline quantifying what the
  filterable heaps buy.

Rakes/compresses onto the same target in one round are combined exactly as
the paper prescribes: filter-and-insert at each contracted cluster in
parallel, then a parallel reduce of melds into the target's heap
(Lemma 3.3 guarantees the union of those spines is itself a spine).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Any

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.contraction.rctree import RCTree
from repro.contraction.schedule import RakeEvent, build_rc_tree
from repro.errors import AlgorithmError
from repro.runtime.cost_model import CostTracker, WorkDepth, comparison_sort_cost, log_cost
from repro.runtime.instrumentation import span
from repro.structures.binomial_heap import BinomialHeap
from repro.trees.wtree import WeightedTree
from repro.util import log2ceil

__all__ = ["sld_tree_contraction", "SpineList"]


class SpineList:
    """A spine as a plain ascending-sorted list (the Section 3.2.1 variant).

    Supports the same interface the driver needs -- ``filter_and_insert``,
    ``meld``, ``items`` -- with linear-cost operations, standing in for the
    naive linked-list SLD-Merge.
    """

    __slots__ = ("_keys", "_vals")

    def __init__(self) -> None:
        self._keys: list[int] = []
        self._vals: list[int] = []

    def __len__(self) -> int:
        return len(self._keys)

    def filter_and_insert(self, key: int, item: int) -> list[tuple[int, int]]:
        """Split below ``key``; keep ``(key, item)`` plus the upper part."""
        cut = bisect_left(self._keys, key)
        removed = list(zip(self._keys[:cut], self._vals[:cut]))
        self._keys = [key] + self._keys[cut:]
        self._vals = [item] + self._vals[cut:]
        return removed

    def meld(self, other: "SpineList") -> "SpineList":
        """Destructive two-way sorted merge (the standard list merge)."""
        ka, va, kb, vb = self._keys, self._vals, other._keys, other._vals
        keys: list[int] = []
        vals: list[int] = []
        i = j = 0
        while i < len(ka) and j < len(kb):
            if ka[i] < kb[j]:
                keys.append(ka[i])
                vals.append(va[i])
                i += 1
            else:
                keys.append(kb[j])
                vals.append(vb[j])
                j += 1
        keys.extend(ka[i:])
        vals.extend(va[i:])
        keys.extend(kb[j:])
        vals.extend(vb[j:])
        self._keys, self._vals = keys, vals
        other._keys, other._vals = [], []
        return self

    def items(self) -> list[tuple[int, int]]:
        return list(zip(self._keys, self._vals))


@cost_bound(
    work="n * log(h)",
    depth="(log(n) * log(h))**2",
    vars=("n", "h"),
    theorem="Theorem 3.7 (mode='heap'): work-optimal O(n log h), polylog "
    "depth; mode='list' is the sub-optimal O(nh) Section 3.2.1 ablation",
)
def sld_tree_contraction(
    tree: WeightedTree,
    mode: str = "heap",
    seed: int | np.random.Generator | None = 0,
    tracker: CostTracker | None = None,
    protected_log: dict | None = None,
) -> np.ndarray:
    """Parent array of the SLD, by tree contraction with spine containers.

    ``protected_log``, if given, receives ``contracted_vertex -> sorted
    edge ids filtered (protected) at that contraction`` plus the final
    spine under key ``-1`` -- the exact sets RCTT's trace buckets must
    reproduce (the Section 4.2 correspondence; see
    ``tests/test_rctt_tc_correspondence.py``).
    """
    if mode not in ("heap", "list"):
        raise AlgorithmError(f"unknown mode {mode!r}; expected 'heap' or 'list'")
    m = tree.m
    parents = np.arange(m, dtype=np.int64)
    if m == 0:
        return parents
    ranks = tree.ranks

    with span("contract"):
        rct: RCTree = build_rc_tree(tree, seed=seed, tracker=tracker)

    make = BinomialHeap if mode == "heap" else SpineList
    spines: dict[int, object] = {}

    def spine_of(v: int) -> Any:  # BinomialHeap | SpineList (meld is homogeneous)
        s = spines.get(v)
        if s is None:
            s = make()
            spines[v] = s
        return s

    with span("merge"):
        for kind, events in rct.rounds:
            by_target: dict[int, list] = defaultdict(list)
            for ev in events:
                by_target[ev.u].append(ev)
            round_work = 0.0
            round_depth = 0.0
            for u, evs in by_target.items():
                target_work = 0.0
                target_depth = 0.0
                incoming = []
                for ev in evs:
                    e = ev.e if isinstance(ev, RakeEvent) else ev.e1
                    sp = spine_of(ev.v)
                    size_before = len(sp) + 1
                    removed = sp.filter_and_insert(int(ranks[e]), int(e))
                    if protected_log is not None and removed:
                        protected_log[ev.v] = sorted(item for _, item in removed)
                    k = len(removed)
                    if tracker is not None:
                        if mode == "heap":
                            fw = (k + 1) * log_cost(size_before)
                            fd = log_cost(size_before) ** 2
                        else:
                            fw = fd = float(size_before)
                        chain = comparison_sort_cost(k)
                        target_work += fw + chain.work
                        target_depth = max(target_depth, fd + chain.depth)
                    _assign_chain(parents, removed, int(e))
                    incoming.append(sp)
                    del spines[ev.v]
                # Parallel reduce of melds: union of the incident spines is
                # itself a spine (Lemma 3.3), so any meld order is valid.
                combined = incoming[0]
                for sp in incoming[1:]:
                    combined = combined.meld(sp)
                meld_unit = 0.0
                if tracker is not None:
                    merged_size = max(len(combined), 2)
                    if mode == "heap":
                        meld_unit = log_cost(merged_size)
                    else:
                        meld_unit = float(merged_size)
                    # d melds as a log-depth reduction tree
                    target_work += meld_unit * len(evs)
                    target_depth += meld_unit * (log2ceil(len(evs)) + 1)
                base = spines.get(u)
                if base is None or len(base) == 0:  # type: ignore[arg-type]
                    spines[u] = combined
                else:
                    spines[u] = base.meld(combined)  # type: ignore[union-attr]
                    target_work += meld_unit
                    target_depth += meld_unit
                round_work += target_work
                round_depth = max(round_depth, target_depth)
            if tracker is not None:
                tracker.add(WorkDepth(round_work, round_depth + log2ceil(max(len(by_target), 1))))

    with span("finalize"):
        final = spines.get(rct.root)
        leftover = sorted(final.items()) if final is not None else []  # type: ignore[union-attr]
        if protected_log is not None and leftover:
            protected_log[-1] = sorted(item for _, item in leftover)
        if leftover:
            ids = [item for _, item in leftover]
            # Final spine chain: O(h) host loop charged as one parallel
            # comparison sort below (the paper's closing sort step).
            for a, b in zip(ids, ids[1:]):  # noqa: RPR102
                parents[a] = b
            parents[ids[-1]] = ids[-1]
            if tracker is not None:
                tracker.add(comparison_sort_cost(len(ids)))
    return parents


@cost_bound(
    work="k * log(k)",
    depth="log(k)**2",
    vars=("k",),
    kind="helper",
    theorem="Claims 3.8/3.9: protected nodes finalize by one parallel sort",
)
def _assign_chain(parents: np.ndarray, removed: list[tuple[int, int]], top: int) -> None:
    """Finalize parents of a protected set: sorted chain ending at ``top``."""
    if not removed:
        return
    removed = sorted(removed)
    for (_, a), (_, b) in zip(removed, removed[1:]):
        parents[a] = b
    parents[removed[-1][1]] = top
