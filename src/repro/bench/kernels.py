"""The perf-regression kernel registry (``python -m repro bench``).

Each :class:`Kernel` is one named hot path the trajectory tracks across
PRs: a deterministic input builder plus a runner that accepts the
``tracker`` argument.  The harness times the runner with instrumentation
fully disabled (``tracker=None``) for the wall-clock numbers, and once
with an enabled :class:`~repro.runtime.cost_model.CostTracker` for the
work/depth totals -- the instrumented wall time doubles as the
pre-fast-path reference, so ``instrumented / median`` is the speedup the
disabled-instrumentation fast paths buy.

Inputs come from the :mod:`repro.datasets` generators (the ladder
families for the dendrogram kernels, preferential-attachment graphs for
the MST kernels), always seeded, so work/depth totals are bit-stable
across machines and the regression gate can compare them exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.api import resolve_algorithm
from repro.datasets.ladders import FAMILY_BUILDERS
from repro.datasets.synthetic_graphs import preferential_attachment_graph
from repro.runtime.cost_model import CostTracker
from repro.trees.boruvka import boruvka_mst
from repro.trees.mst import kruskal_mst, mst_ids

__all__ = ["Kernel", "KERNELS", "kernel_names"]


@dataclass(frozen=True)
class Kernel:
    """One tracked hot path: deterministic input + tracker-aware runner."""

    name: str
    #: Input size used at full scale / with ``--quick``.
    size: int
    quick_size: int
    build: Callable[[int], Any]
    run: Callable[[Any, CostTracker | None], np.ndarray]
    #: Reference twin for array-backend kernels.  When set, the harness
    #: times this (uninstrumented) in place of the instrumented pass, so
    #: the reported speedup is the honest reference/array wall ratio; the
    #: reference kernel entry keeps the work/depth accounting.
    ref_run: Callable[[Any, CostTracker | None], np.ndarray] | None = None
    #: Backend family the kernel belongs to (``repro bench --backend``).
    backend: str = "reference"

    def input_for(self, quick: bool) -> Any:
        return self.build(self.quick_size if quick else self.size)


def _algo_runner(
    name: str, backend: str = "reference", **options: Any
) -> Callable[[Any, CostTracker | None], np.ndarray]:
    fn = resolve_algorithm(name, backend)

    def run(tree: Any, tracker: CostTracker | None) -> np.ndarray:
        return fn(tree, tracker=tracker, **options)

    return run


def _ladder_tree(n: int) -> Any:
    return FAMILY_BUILDERS["random"](n)


def _pa_graph(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    nn, edges = preferential_attachment_graph(n, m_attach=4, seed=1)
    weights = np.random.default_rng(1).random(edges.shape[0], dtype=np.float64)
    return nn, edges, weights


def _run_paruf_threaded(tree: Any, tracker: CostTracker | None) -> np.ndarray:
    from repro.core.paruf_threaded import paruf_threaded

    # The OS thread schedule admits no deterministic charged bound, so the
    # tracker is deliberately unused; work/depth report as a stable zero
    # and the regression gate tracks the wall numbers only.
    return paruf_threaded(tree, num_threads=4)


def _query_payload(n: int) -> Any:
    """Engine + query mix for the ``dendro-query`` kernel.

    A seeded batch of ``4n`` vertex pairs plus five weight-quantile cut
    thresholds over the random ladder tree's dendrogram.  The engine's
    cut-cache is disabled so every timed run recomputes its cuts.
    """
    from repro.core.api import single_linkage_dendrogram
    from repro.dendrogram.lca import DendrogramIndex
    from repro.dendrogram.query import QueryEngine

    tree = _ladder_tree(n)
    dend = single_linkage_dendrogram(tree, algorithm="sequf")
    engine = QueryEngine.from_dendrogram(dend, cut_cache_size=0)
    index = DendrogramIndex(dend)
    pairs = np.random.default_rng(2).integers(0, n, size=(4 * n, 2))
    thresholds = np.quantile(tree.weights, [0.1, 0.3, 0.5, 0.7, 0.9])
    return tree, engine, index, pairs, thresholds


def _run_dendro_query(payload: Any, tracker: CostTracker | None) -> np.ndarray:
    # Pure numpy batch queries: no charged abstract ops, so the tracker is
    # deliberately unused and work/depth report as a stable zero (the
    # paruf-threaded precedent); the gate tracks the wall numbers.
    tree, engine, _, pairs, thresholds = payload
    heights = engine.merge_heights(pairs)
    for t in thresholds:
        engine.cut_at(float(t))
    return heights


def _ref_dendro_query(payload: Any, tracker: CostTracker | None) -> np.ndarray:
    # The pre-vectorization serving path: one scalar O(log h) lift per
    # pair and a component pass over the tree per cut.
    from repro.dendrogram.linkage import cut_height

    tree, _, index, pairs, thresholds = payload
    heights = np.array(
        [index.merge_height(int(u), int(v)) for u, v in pairs], dtype=np.float64
    )
    for t in thresholds:
        cut_height(tree, float(t))
    return heights


def _dynamic_payload(n: int) -> Any:
    """Engine + batched insert streams for the ``dynamic-update`` kernel.

    A preferential-attachment graph behind a :class:`DynamicSLD`, plus 16
    seeded batches of 8 fresh edges each.  The runner applies every batch
    and then deletes the same edges, so the payload returns to its start
    state after each timed run (weights are distinct, so the MST -- and
    hence the amount of repair work -- is identical run to run).
    """
    from repro.core.dynamic import DynamicSLD

    nn, edges, weights = _pa_graph(n)
    engine = DynamicSLD.from_graph(nn, edges, weights)
    present = {tuple(sorted(map(int, pair))) for pair in edges}
    rng = np.random.default_rng(3)
    batches: list[list[tuple[int, int, float]]] = []
    for _ in range(16):
        batch: list[tuple[int, int, float]] = []
        while len(batch) < 8:
            u, v = (int(x) for x in rng.integers(0, nn, size=2))
            key = (min(u, v), max(u, v))
            if u == v or key in present:
                continue
            present.add(key)
            batch.append((u, v, float(rng.random())))
        batches.append(batch)
    for batch in batches:
        for u, v, _w in batch:
            present.discard((min(u, v), max(u, v)))
    return nn, edges, weights, engine, batches


def _run_dynamic_update(payload: Any, tracker: CostTracker | None) -> np.ndarray:
    # The batch-update hot path itself charges no abstract ops at the
    # tracker layer (the paruf-threaded precedent): work/depth report as a
    # stable zero and the gate tracks the wall numbers against ref_run.
    _nn, _edges, _weights, engine, batches = payload
    for batch in batches:
        engine.apply_batch(inserts=batch)
        engine.apply_batch(deletes=[(u, v) for u, v, _w in batch])
    return engine.parents.copy()


def _ref_dynamic_update(payload: Any, tracker: CostTracker | None) -> np.ndarray:
    # The pre-dynamic-engine answer to the same update stream: rebuild the
    # MST and dendrogram from scratch after every batch (do and undo).
    from repro.core.sequf import sequf
    from repro.trees.wtree import WeightedTree

    nn, edges, weights, _engine, batches = payload

    def recompute(es: np.ndarray, ws: np.ndarray) -> np.ndarray:
        ids = mst_ids(nn, es, ws)
        tree = WeightedTree(nn, es[ids].copy(), ws[ids].copy(), validate=False)
        return sequf(tree)

    k = len(batches[0])
    combined_e = np.concatenate([edges, np.zeros((k, 2), dtype=np.int64)])
    combined_w = np.concatenate([weights, np.zeros(k, dtype=np.float64)])
    parents = np.empty(0, dtype=np.int64)
    for batch in batches:
        combined_e[-k:] = np.array([[u, v] for u, v, _w in batch], dtype=np.int64)
        combined_w[-k:] = np.array([w for _u, _v, w in batch], dtype=np.float64)
        recompute(combined_e, combined_w)
        parents = recompute(edges, weights)
    return parents


def _run_kruskal(
    payload: tuple[int, np.ndarray, np.ndarray], tracker: CostTracker | None
) -> np.ndarray:
    n, edges, weights = payload
    return kruskal_mst(n, edges, weights, tracker=tracker)


def _run_boruvka(
    payload: tuple[int, np.ndarray, np.ndarray], tracker: CostTracker | None
) -> np.ndarray:
    n, edges, weights = payload
    return boruvka_mst(n, edges, weights, tracker=tracker)


def _point_cloud(n: int) -> np.ndarray:
    return np.random.default_rng(5).random((n, 4))


def _pipeline_points_runner(backend: str) -> Callable[[Any, CostTracker | None], np.ndarray]:
    def run(pts: Any, tracker: CostTracker | None) -> np.ndarray:
        from repro.cluster.single_linkage import single_linkage

        # End-to-end: k-NN graph -> Boruvka MST -> dendrogram, one backend
        # throughout.  No charged abstract ops at this layer (the stage
        # kernels carry the accounting), so the tracker is unused.
        result = single_linkage(pts, k=8, backend=backend)
        return result.dendrogram.parents

    return run


def _pipeline_graph_runner(backend: str) -> Callable[[Any, CostTracker | None], np.ndarray]:
    def run(payload: Any, tracker: CostTracker | None) -> np.ndarray:
        from repro.cluster.graph_linkage import graph_single_linkage

        n, edges, weights = payload
        result = graph_single_linkage(n, edges, weights, backend=backend)
        return result.dendrogram.parents

    return run


def _streaming_payload(m_target: int) -> Any:
    """A REDG1 edge file of roughly ``m_target`` edges plus the in-memory
    arrays (the reference twin runs plain Kruskal on them)."""
    import tempfile
    from pathlib import Path

    from repro.io.edgefile import write_edge_file

    n, edges, weights = _pa_graph(max(2, m_target // 4))
    path = Path(tempfile.mkdtemp(prefix="repro-bench-")) / "graph.redg"
    write_edge_file(path, n, edges, weights)
    return path, n, edges, weights


def _run_streaming(payload: Any, tracker: CostTracker | None) -> np.ndarray:
    from repro.trees.mst import streaming_kruskal_mst

    path, _, _, _ = payload
    return streaming_kruskal_mst(path, chunk=1 << 16)[1]


def _ref_streaming(payload: Any, tracker: CostTracker | None) -> np.ndarray:
    # The in-memory scan: the honest "cost of going out of core" ratio
    # (expected < 1x -- the gate tracks the wall numbers, not the ratio).
    _, n, edges, weights = payload
    return kruskal_mst(n, edges, weights)


#: The tracked kernels, in report order.  Sizes are tuned so a full run
#: stays in CI budget; ``--quick`` quarters them.
KERNELS: tuple[Kernel, ...] = (
    Kernel("sequf", 8192, 2048, _ladder_tree, _algo_runner("sequf")),
    Kernel("paruf", 2048, 512, _ladder_tree, _algo_runner("paruf", seed=0)),
    Kernel("paruf-threaded", 2048, 512, _ladder_tree, _run_paruf_threaded),
    Kernel("rctt", 4096, 1024, _ladder_tree, _algo_runner("rctt", seed=0)),
    Kernel(
        "tree-contraction",
        2048,
        512,
        _ladder_tree,
        _algo_runner("tree-contraction", seed=0),
    ),
    Kernel("sld-merge", 2048, 512, _ladder_tree, _algo_runner("divide-conquer")),
    Kernel("mst-kruskal", 30000, 6000, _pa_graph, _run_kruskal),
    Kernel("mst-boruvka", 30000, 6000, _pa_graph, _run_boruvka),
    # Array-backend kernels: 8-32x larger inputs than their reference
    # kernels, timed against the reference (``sequf`` and ``rctt`` are
    # their own array backends, so theirs read ~1x).
    Kernel(
        "sequf-fast",
        262144,
        16384,
        _ladder_tree,
        _algo_runner("sequf", "array"),
        ref_run=_algo_runner("sequf"),
        backend="array",
    ),
    Kernel(
        "tree-contraction-fast",
        16384,
        4096,
        _ladder_tree,
        _algo_runner("tree-contraction", "array", seed=0),
        ref_run=_algo_runner("tree-contraction", seed=0),
        backend="array",
    ),
    Kernel(
        "rctt-fast",
        65536,
        8192,
        _ladder_tree,
        _algo_runner("rctt", "array", seed=0),
        ref_run=_algo_runner("rctt", seed=0),
        backend="array",
    ),
    # The serving layer: batched merge-height + threshold-cut queries via
    # the snapshot/query engine, timed against the scalar per-query path.
    Kernel(
        "dendro-query",
        16384,
        2048,
        _query_payload,
        _run_dendro_query,
        ref_run=_ref_dendro_query,
        backend="array",
    ),
    # The batch-dynamic engine: 16 insert batches (and their undos)
    # through apply_batch, timed against recompute-from-scratch.
    Kernel(
        "dynamic-update",
        8192,
        1024,
        _dynamic_payload,
        _run_dynamic_update,
        ref_run=_ref_dynamic_update,
        backend="array",
    ),
    # End-to-end pipelines, array vs. reference backend throughout
    # (points: k-NN -> Boruvka -> dendrogram; graph: Boruvka -> dendrogram).
    Kernel(
        "pipeline-points",
        4096,
        1024,
        _point_cloud,
        _pipeline_points_runner("array"),
        ref_run=_pipeline_points_runner("reference"),
        backend="array",
    ),
    Kernel(
        "pipeline-graph",
        50000,
        4096,
        _pa_graph,
        _pipeline_graph_runner("array"),
        ref_run=_pipeline_graph_runner("reference"),
        backend="array",
    ),
    # Out-of-core filter-Kruskal over a REDG1 file (size = edge
    # count); the reference twin is the in-memory scan of the same edges.
    Kernel(
        "mst-streaming",
        1000000,
        65536,
        _streaming_payload,
        _run_streaming,
        ref_run=_ref_streaming,
        backend="array",
    ),
)


def kernel_names() -> list[str]:
    return [k.name for k in KERNELS]


def kernels_for_backend(backend: str) -> list[Kernel]:
    """The kernels of one backend family (``"both"`` selects all)."""
    if backend == "both":
        return list(KERNELS)
    if backend not in ("reference", "array"):
        raise ValueError(
            f"unknown backend {backend!r}; expected 'reference', 'array' or 'both'"
        )
    return [k for k in KERNELS if k.backend == backend]
