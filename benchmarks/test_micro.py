"""Micro-benchmarks of the substrates (not tied to a paper table/figure).

These quantify the constants behind the design choices: heap operation
costs by implementation, union-find throughput, RC-tree construction, MST
methods, and the brute oracle's quadratic wall (why it is test-only).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import benchmark_n, run_once
from repro.contraction.schedule import build_rc_tree
from repro.structures import make_heap
from repro.structures.unionfind import UnionFind
from repro.trees.boruvka import boruvka_mst
from repro.trees.generators import knuth_tree
from repro.trees.mst import kruskal_mst, mst_ids
from repro.trees.weights import apply_scheme


@pytest.mark.parametrize("kind", ["binomial", "pairing", "skew"])
def test_time_heap_insert_delete(benchmark, kind):
    n = min(benchmark_n(), 4000)
    keys = np.random.default_rng(0).permutation(n)
    benchmark.group = "micro:heap-ops"

    def run():
        h = make_heap(kind)
        for k in keys:
            h.insert(int(k), int(k))
        while not h.is_empty:
            h.delete_min()

    run_once(benchmark, run)


@pytest.mark.parametrize("kind", ["binomial", "pairing", "skew"])
def test_time_heap_meld_tournament(benchmark, kind):
    """Meld n singleton heaps pairwise (the SLD-TC reduce pattern)."""
    n = min(benchmark_n(), 4000)
    benchmark.group = "micro:heap-meld"

    def run():
        heaps = [make_heap(kind) for _ in range(n)]
        for i, h in enumerate(heaps):
            h.insert(i, i)
        while len(heaps) > 1:
            nxt = []
            for i in range(0, len(heaps) - 1, 2):
                nxt.append(heaps[i].meld(heaps[i + 1]))
            if len(heaps) % 2:
                nxt.append(heaps[-1])
            heaps = nxt
        assert len(heaps[0]) == n

    run_once(benchmark, run)


def test_time_binomial_filter(benchmark):
    n = min(benchmark_n(), 4000)
    benchmark.group = "micro:heap-filter"

    def run():
        h = make_heap("binomial")
        for k in range(n):
            h.insert(k, k)
        removed = h.filter(n // 2)
        assert len(removed) == n // 2

    run_once(benchmark, run)


def test_time_unionfind(benchmark):
    n = benchmark_n()
    rng = np.random.default_rng(0)
    order = rng.permutation(n - 1)
    benchmark.group = "micro:unionfind"

    def run():
        uf = UnionFind(n)
        for i in order:
            uf.union(int(i), int(i) + 1)
        assert uf.num_sets == 1

    run_once(benchmark, run)


def test_time_rc_tree_build(benchmark):
    n = benchmark_n()
    tree = knuth_tree(n, seed=0).with_weights(apply_scheme("perm", n - 1, seed=1))
    benchmark.group = "micro:rc-tree"
    run_once(benchmark, build_rc_tree, tree)


def test_time_rc_tree_build_fast(benchmark):
    from repro.contraction.fast import build_rc_tree_fast

    n = benchmark_n()
    tree = knuth_tree(n, seed=0).with_weights(apply_scheme("perm", n - 1, seed=1))
    benchmark.group = "micro:rc-tree"
    run_once(benchmark, build_rc_tree_fast, tree)


@pytest.mark.parametrize("method", ["kruskal", "boruvka", "mst_ids"])
def test_time_mst_methods(benchmark, method):
    rng = np.random.default_rng(0)
    n = min(benchmark_n(), 2000)
    # random tree + 4n extra edges
    edges = [(int(rng.integers(i)), i) for i in range(1, n)]
    seen = {(min(u, v), max(u, v)) for u, v in edges}
    while len(edges) < 5 * n:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    edge_arr = np.array(edges, dtype=np.int64)
    weights = rng.permutation(len(edges)).astype(np.float64)
    fn = {"kruskal": kruskal_mst, "boruvka": boruvka_mst, "mst_ids": mst_ids}[method]
    benchmark.group = "micro:mst"
    ids = run_once(benchmark, fn, n, edge_arr, weights)
    assert len(ids) == n - 1


def test_time_brute_oracle_quadratic(benchmark):
    """Document why the oracle is test-only: quadratic even at small n."""
    from repro.core.brute import brute_force_sld

    tree = knuth_tree(800, seed=0).with_weights(apply_scheme("perm", 799, seed=1))
    benchmark.group = "micro:oracle"
    run_once(benchmark, brute_force_sld, tree)
