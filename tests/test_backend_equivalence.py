"""Reference-vs-array backend equivalence: bit-identical parents.

The dendrogram is unique under the ``(weight, edge id)`` tie-breaking, so
each flat-array twin must reproduce its reference algorithm *exactly* --
``np.array_equal``, not isomorphism -- on every topology the corpus
generators produce, under weight families chosen to stress the batched
code paths (massive duplication, subnormal magnitudes, mixed extreme
magnitudes with signed zeros), and regardless of how the call is
instrumented: with a tracker (the twins delegate to the reference), with
no tracker inside an open phase recording, or not at all.  All three modes
must agree with each other too.
"""

from __future__ import annotations

from contextlib import nullcontext
import zlib

import numpy as np
import pytest

from conftest import ARRAY_BACKED, TREE_KINDS, make_tree
from repro.core.api import resolve_algorithm
from repro.runtime.cost_model import CostTracker
from repro.runtime.instrumentation import recording

#: Options pinning the seeded twins so both backends contract identically.
_OPTIONS = {"rctt": {"seed": 0}, "tree-contraction": {"seed": 0}}
PAIRS = tuple((name, _OPTIONS.get(name, {})) for name in ARRAY_BACKED)

SIZES = (2, 3, 33, 97)


def _duplicate(m: int, rng: np.random.Generator) -> np.ndarray:
    """Tiny value range: almost every weight is tied with many others."""
    return rng.integers(0, max(1, m // 8), size=m).astype(np.float64)


def _denormal(m: int, rng: np.random.Generator) -> np.ndarray:
    """Subnormal floats: small multiples of the smallest positive double."""
    return rng.integers(1, 64, size=m).astype(np.float64) * 5e-324


def _extreme(m: int, rng: np.random.Generator) -> np.ndarray:
    """Mixed huge/tiny magnitudes, signed zeros included (0.0 == -0.0 ties)."""
    pool = np.array([1e308, -1e308, 1e-308, -1e-308, 0.0, -0.0, 1.0, -1.0])
    return pool[rng.integers(0, len(pool), size=m)]


WEIGHT_FAMILIES = {
    "duplicate": _duplicate,
    "denormal": _denormal,
    "extreme": _extreme,
}

#: ``(tracker factory, context)`` per mode: "disabled" passes no tracker
#: while a recording block is open, so the twin's own kernels run with
#: spans live.
TRACKER_MODES = {
    "enabled": (CostTracker, nullcontext),
    "disabled": (lambda: None, recording),
    "none": (lambda: None, nullcontext),
}


@pytest.mark.parametrize("tracker_mode", sorted(TRACKER_MODES))
@pytest.mark.parametrize("family", sorted(WEIGHT_FAMILIES))
@pytest.mark.parametrize("kind", sorted(TREE_KINDS))
def test_array_backend_bit_identical(kind, family, tracker_mode):
    weights_of = WEIGHT_FAMILIES[family]
    for n in SIZES:
        rng = np.random.default_rng(zlib.crc32(f"{kind}:{family}:{n}".encode()))
        tree = make_tree(kind, n).with_weights(weights_of(n - 1, rng))
        make_tracker, context = TRACKER_MODES[tracker_mode]
        for name, opts in PAIRS:
            expected = resolve_algorithm(name, "reference")(tree, tracker=None, **opts)
            with context():
                got = resolve_algorithm(name, "array")(tree, tracker=make_tracker(), **opts)
            assert np.array_equal(got, expected), (kind, family, tracker_mode, n, name)


@pytest.mark.parametrize("name,opts", PAIRS, ids=[f"{name}-fast" for name, _ in PAIRS])
def test_array_backend_instrumented_accounting_matches_reference(name, opts):
    """With an enabled tracker the array backend charges what the
    reference does (a twin delegates; ``sequf`` and ``rctt`` are their own)."""
    tree = make_tree("random", 64).with_weights(_duplicate(63, np.random.default_rng(7)))
    t_ref, t_fast = CostTracker(), CostTracker()
    ref = resolve_algorithm(name, "reference")(tree, tracker=t_ref, **opts)
    fast = resolve_algorithm(name, "array")(tree, tracker=t_fast, **opts)
    assert np.array_equal(ref, fast)
    assert (t_fast.work, t_fast.depth) == (t_ref.work, t_ref.depth)
    assert t_ref.work > 0.0


def _graph_from_tree(kind: str, n: int, rng: np.random.Generator):
    """A connected graph on ``n`` vertices: the corpus tree's edges plus
    random non-tree edges, so the MST stage has genuine choices to make."""
    tree = make_tree(kind, n)
    rows = [tuple(sorted(map(int, e))) for e in tree.edges]
    seen = set(rows)
    extra = min(2 * n, n * (n - 1) // 2 - len(rows))
    while extra > 0:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            rows.append((min(u, v), max(u, v)))
            extra -= 1
    return n, np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("family", sorted(WEIGHT_FAMILIES))
@pytest.mark.parametrize("kind", sorted(TREE_KINDS))
def test_graph_pipeline_end_to_end_bit_identical(kind, family):
    """``graph_single_linkage(backend="array")`` must match
    ``backend="reference"`` exactly -- MST edge ids, weights, and parents --
    on every corpus topology under every adversarial weight family.

    This is the pinned regression for the ``backend=`` plumbing: before
    the keyword existed, only per-algorithm twins were exercised and the
    pipeline always ran the reference path.
    """
    from repro.cluster.graph_linkage import graph_single_linkage

    weights_of = WEIGHT_FAMILIES[family]
    for n in (2, 3, 33):
        rng = np.random.default_rng(zlib.crc32(f"g:{kind}:{family}:{n}".encode()))
        n, edges = _graph_from_tree(kind, n, rng)
        weights = weights_of(edges.shape[0], rng)
        results = {
            backend: graph_single_linkage(n, edges, weights, backend=backend)
            for backend in ("reference", "array", "auto")
        }
        ref = results["reference"]
        for backend in ("array", "auto"):
            got = results[backend]
            assert np.array_equal(got.mst.edges, ref.mst.edges), (kind, family, n)
            assert got.mst.weights.tobytes() == ref.mst.weights.tobytes()
            assert np.array_equal(got.dendrogram.parents, ref.dendrogram.parents)


@pytest.mark.parametrize("mst_method", ["kruskal", "boruvka"])
def test_points_pipeline_end_to_end_bit_identical(mst_method, monkeypatch):
    """``single_linkage(backend="array")`` on point clouds (both the k-NN
    and complete-graph front ends) must match the reference backend, on
    either side of the MST stage's density threshold (forced here)."""
    from repro.cluster.single_linkage import single_linkage
    from repro.trees import mst

    monkeypatch.setattr(mst, "KRUSKAL_DENSITY", 0 if mst_method == "kruskal" else 2**40)
    rng = np.random.default_rng(20240808)
    # Duplicate coordinates force tied distances through the whole stack.
    pts = rng.integers(0, 6, size=(60, 2)).astype(np.float64)
    for k in (None, 3):
        ref = single_linkage(pts, k=k, backend="reference")
        arr = single_linkage(pts, k=k, backend="array")
        assert np.array_equal(arr.mst.edges, ref.mst.edges)
        assert arr.mst.weights.tobytes() == ref.mst.weights.tobytes()
        assert np.array_equal(arr.dendrogram.parents, ref.dendrogram.parents)
