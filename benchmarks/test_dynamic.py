"""Dynamic SLD maintenance (extension experiment, beyond the paper).

Times updates at different rank quantiles and asserts the locality shape:
the splice visits at most 3h + 2 dendrogram nodes per update (h the
height), fewer than the suffix above the updated rank for the lower half.
Times reserve-only batches at two graph sizes: their cost is what the
batch touches, so it should not grow with n.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import run_once
from repro.core.dynamic import DynamicSLD
from repro.datasets.synthetic_graphs import preferential_attachment_graph
from repro.trees.generators import knuth_tree


def _dyn(bn):
    rng = np.random.default_rng(0)
    tree = knuth_tree(bn, seed=1).with_weights(rng.permutation(bn - 1).astype(float))
    return DynamicSLD(tree)


@pytest.mark.parametrize("quantile", [0.99, 0.5, 0.1], ids=["q99", "q50", "q10"])
def test_time_update_at_quantile(benchmark, bn, quantile):
    dyn = _dyn(bn)
    order = np.argsort(dyn.ranks)
    e = int(order[int(quantile * (bn - 2))])
    benchmark.group = "dynamic:update"
    # Toggle across one neighboring rank: a rank-preserving nudge is now an
    # early-out no-op, so each timed update must genuinely move the rank.
    w0 = float(dyn.weights[e])
    state = [False]

    def update():
        state[0] = not state[0]
        dyn.update_weight(e, w0 + 1.5 if state[0] else w0)

    run_once(benchmark, update)


def test_dynamic_locality_shape(benchmark, bn):
    def measure():
        dyn = _dyn(bn)
        order = np.argsort(dyn.ranks)
        rows = {}
        for q in (0.99, 0.9, 0.5, 0.1):
            e = int(order[int(q * (bn - 2))])
            lo, h = int(dyn.ranks[e]), dyn.dendrogram().height
            # +1.5 crosses exactly one integer-valued neighbor, so the
            # edge's rank moves and the splice runs.
            visits = dyn.update_weight(e, float(dyn.weights[e]) + 1.5)
            rows[q] = (visits, (bn - 1) - lo, max(h, dyn.dendrogram().height))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    # The splice's shape: an update visits O(h) nodes -- the edge's strict
    # ancestors (< h), its children (<= 2), the slot and two spines
    # (<= h each) -- wherever its rank sits, instead of the m - lo nodes
    # of the suffix above its rank.
    for visits, _suffix, h in rows.values():
        assert 0 < visits <= 3 * h + 2
    assert rows[0.5][0] < rows[0.5][1]
    assert rows[0.1][0] < rows[0.1][1]


def _reserve_only_batch(n):
    """Engine over a preferential-attachment graph, plus 8 fresh pairs
    weighted above every tree edge (so every insert enters the reserve)."""
    nn, edges = preferential_attachment_graph(n, m_attach=4, seed=0)
    rng = np.random.default_rng(0)
    dyn = DynamicSLD.from_graph(nn, edges, rng.random(edges.shape[0]))
    present = set(map(tuple, edges.tolist()))
    pairs: list[tuple[int, int]] = []
    while len(pairs) < 8:
        u, v = sorted(int(x) for x in rng.integers(0, nn, size=2))
        if u != v and (u, v) not in present and (u, v) not in pairs:
            pairs.append((u, v))
    heavy = float(dyn.weights.max()) + 1.0
    return dyn, [(u, v, heavy) for u, v in pairs], pairs


@pytest.mark.parametrize("op", ["insert", "delete"])
@pytest.mark.parametrize("n", [20_000, 100_000], ids=["n2e4", "n1e5"])
def test_time_reserve_only_batch(benchmark, n, op):
    dyn, inserts, pairs = _reserve_only_batch(n)
    reserve = dyn.reserve_size
    benchmark.group = f"dynamic:reserve-batch-{op}"
    present = [False]

    def add():
        present[0] = True
        return dyn.apply_batch(inserts=inserts)

    def drop():
        present[0] = False
        return dyn.apply_batch(deletes=pairs)

    def setup():
        # Put the pairs where the timed batch expects them (out for an
        # insert, in for a delete); pedantic's setup must return None.
        if present[0] == (op == "insert"):
            (drop if present[0] else add)()

    target = add if op == "insert" else drop
    benchmark.pedantic(target, setup=setup, rounds=5, iterations=1, warmup_rounds=1)
    if present[0]:
        drop()
    assert dyn.reserve_size == reserve
    assert dyn.last_update_size == 0  # the dendrogram was never touched
