#!/usr/bin/env python
"""Maintaining a dendrogram under weight updates and edge insert/delete.

The paper closes by asking for dynamic SLD maintenance; this example
demonstrates the package's answer (`repro.core.DynamicSLD`):

* `update_weight` splices the edge out of its old place in the
  dendrogram and back in at its new rank, touching only spines (at most
  3h + 2 nodes for a dendrogram of height h) -- and a rank-preserving
  nudge is a free no-op;
* `apply_batch` maintains the minimum spanning tree of a full graph
  under batched edge inserts (cycle rule) and deletes (cut rule),
  splicing the dendrogram at every tree-slot rewrite;
* `generation` stamps snapshots so the serving layer can detect
  staleness.

Run:  python examples/dynamic_updates.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import DynamicSLD, sequf
from repro.trees.generators import knuth_tree
from repro.trees.mst import kruskal_mst


def quantile_updates() -> None:
    n = 20_000
    rng = np.random.default_rng(0)
    tree = knuth_tree(n, seed=1).with_weights(rng.permutation(n - 1).astype(float))

    dyn = DynamicSLD(tree)
    print(f"built dynamic SLD over {n - 1} edges (height {dyn.dendrogram().height})")

    # Update edges at different rank quantiles and watch how many
    # dendrogram nodes the splice visits.  The +1.5 delta crosses exactly
    # one integer-valued neighbor, so each update genuinely moves the
    # edge's rank.
    order = np.argsort(dyn.ranks)
    print(f"\n{'rank quantile':>14} {'nodes visited':>14} {'update ms':>10} {'full ms':>9}")
    for q in (0.999, 0.99, 0.9, 0.5, 0.1):
        e = int(order[int(q * (n - 2))])
        new_w = float(dyn.weights[e]) + 1.5
        t0 = time.perf_counter()
        count = dyn.update_weight(e, new_w)
        dt = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        full = sequf(dyn.tree())
        full_ms = (time.perf_counter() - t0) * 1e3
        assert np.array_equal(dyn.parents, full), "dynamic result diverged!"
        print(f"{q:>14} {count:>14} {dt:>10.1f} {full_ms:>9.1f}")

    # A rank-preserving nudge is free: no splice at all.
    e = int(order[n // 2])
    count = dyn.update_weight(e, float(dyn.weights[e]) + 0.25)
    print(f"\nrank-preserving nudge visited {count} nodes (early-out)")
    print("every update verified against a from-scratch recompute.")


def batched_stream() -> None:
    n = 4_000
    rng = np.random.default_rng(7)
    base = knuth_tree(n, seed=2)
    extra = []
    present = {tuple(sorted(map(int, p))) for p in base.edges}
    while len(extra) < n // 2:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v or (min(u, v), max(u, v)) in present:
            continue
        present.add((min(u, v), max(u, v)))
        extra.append((u, v))
    edges = np.concatenate([base.edges, np.array(extra, dtype=np.int64)])
    weights = rng.random(edges.shape[0])

    dyn = DynamicSLD.from_graph(n, edges, weights)
    print(
        f"\nbuilt engine over a graph with {edges.shape[0]} edges "
        f"({dyn.m} tree slots, {dyn.reserve_size} in reserve)"
    )

    # A mixed insert/delete stream: each batch adds fresh edges and deletes
    # a few of the ones it inserted earlier.
    inserted: list[tuple[int, int]] = []
    t0 = time.perf_counter()
    for _ in range(8):
        batch: list[tuple[int, int, float]] = []
        while len(batch) < 12:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            key = (min(u, v), max(u, v))
            if u == v or key in present:
                continue
            present.add(key)
            batch.append((u, v, float(rng.random())))
        deletes = inserted[:4]
        del inserted[:4]
        for u, v in deletes:
            present.discard((min(u, v), max(u, v)))
        dyn.apply_batch(inserts=batch, deletes=deletes)
        inserted.extend((min(u, v), max(u, v)) for u, v, _w in batch)
    dt = (time.perf_counter() - t0) * 1e3
    print(f"applied 8 mixed batches in {dt:.1f} ms (generation {dyn.generation})")

    # Verify the maintained state against recompute-from-scratch: the
    # dendrogram must be bit-identical to SeqUF on the maintained tree, and
    # the maintained tree must carry an MST's weight multiset.
    assert np.array_equal(dyn.parents, sequf(dyn.tree())), "batched result diverged!"
    ge, gw = dyn.graph_edges()
    ids = kruskal_mst(n, ge, gw)
    assert np.array_equal(np.sort(dyn.weights), np.sort(gw[ids]))
    print("maintained dendrogram is bit-identical to recompute-from-scratch.")


def main() -> None:
    quantile_updates()
    batched_stream()


if __name__ == "__main__":
    main()
