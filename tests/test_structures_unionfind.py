"""Union-find invariants and instrumentation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.unionfind import UnionFind


def test_initial_state():
    uf = UnionFind(5)
    assert uf.num_sets == 5
    assert [uf.find(i) for i in range(5)] == list(range(5))
    assert all(uf.set_size(i) == 1 for i in range(5))


def test_union_returns_surviving_root():
    uf = UnionFind(4)
    r = uf.union(0, 1)
    assert r in (0, 1)
    assert uf.find(0) == uf.find(1) == r
    assert uf.set_size(0) == 2
    assert uf.num_sets == 3


def test_union_by_size_prefers_larger():
    uf = UnionFind(6)
    big = uf.union(0, 1)
    big = uf.union(big, 2)
    r = uf.union(big, 5)
    assert r == big  # the size-3 root survives against the singleton


def test_union_connected_raises():
    uf = UnionFind(3)
    uf.union(0, 1)
    with pytest.raises(ValueError, match="already-connected"):
        uf.union(1, 0)


def test_union_accepts_non_roots():
    uf = UnionFind(5)
    uf.union(0, 1)
    uf.union(1, 2)  # 1 is not a root anymore
    assert uf.connected(0, 2)
    assert uf.set_size(2) == 3


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        UnionFind(-1)


def test_counters_track_operations():
    uf = UnionFind(8)
    for i in range(7):
        uf.union(i, i + 1)
    assert uf.unions == 7
    assert uf.finds >= 14  # two finds per union
    # Path halving bounds total steps well below the naive chain cost.
    uf.find(0)
    assert uf.find_steps <= uf.finds * 4


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80),
)
def test_equivalence_relation_vs_reference(n, pairs):
    """Union-find must realize exactly the transitive closure of the merged
    pairs (checked against a naive label-propagation reference)."""
    uf = UnionFind(n)
    labels = list(range(n))
    for a, b in pairs:
        a, b = a % n, b % n
        if labels[a] != labels[b]:
            old, new = labels[a], labels[b]
            labels = [new if x == old else x for x in labels]
            uf.union(a, b)
    for i in range(n):
        for j in range(i + 1, n):
            assert uf.connected(i, j) == (labels[i] == labels[j])
    assert uf.num_sets == len(set(labels))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**31 - 1))
def test_set_sizes_sum_to_n(n, seed):
    rng = np.random.default_rng(seed)
    uf = UnionFind(n)
    for _ in range(n // 2):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if not uf.connected(a, b):
            uf.union(a, b)
    roots = np.unique(uf.find_many(np.arange(n)))
    assert roots.size == uf.num_sets
    assert sum(uf.set_size(int(r)) for r in roots) == n


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 50),
    pairs=st.lists(st.tuples(st.integers(0, 49), st.integers(0, 49)), max_size=60),
    queries=st.lists(st.integers(0, 49), max_size=40),
)
def test_find_many_matches_scalar_find(n, pairs, queries):
    uf_batch = UnionFind(n)
    uf_scalar = UnionFind(n)
    for a, b in pairs:
        a, b = a % n, b % n
        if not uf_batch.connected(a, b):
            uf_batch.union(a, b)
            uf_scalar.union(a, b)
    xs = np.asarray([q % n for q in queries], dtype=np.int64)
    batch = uf_batch.find_many(xs)
    scalar = np.asarray([uf_scalar.find(int(x)) for x in xs], dtype=np.int64)
    assert np.array_equal(batch, scalar)
    # Full path compression: a second batch takes zero steps.
    steps_before = uf_batch.find_steps
    uf_batch.find_many(xs)
    assert uf_batch.find_steps == steps_before


def test_find_many_charges_statistics():
    uf = UnionFind(8)
    for a, b in [(0, 1), (1, 2), (2, 3)]:
        uf.union(a, b)
    finds_before = uf.finds
    uf.find_many(np.arange(8))
    assert uf.finds == finds_before + 8


def test_find_many_empty():
    uf = UnionFind(4)
    out = uf.find_many(np.empty(0, dtype=np.int64))
    assert out.size == 0 and out.dtype == np.int64
