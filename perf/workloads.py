"""The four benchmark workloads: inputs from a seed, the timed body, the checks.

Every workload runs one pipeline through the program's public entry
points and ends at a :class:`~repro.dendrogram.query.QueryEngine`:

* ``refresh`` -- the time from handing the program a new input (or an
  update batch) until the first batch of queries over the fresh
  dendrogram is answered.  In the batch workloads that is the whole
  pipeline; in ``serve-mixed`` it is ``apply_batch`` plus the snapshot
  and engine rebuild.
* ``reads`` -- batches of 1024 ``merge_heights`` pairs against that
  engine, each batch timed on its own.

Inputs are generated in the parent process, written to the run's work
directory and digested; the child process only loads them, so the
program receives arrays or files and nothing else.  Checks run after
the timed work and after the peak-RSS read, against independent
in-memory oracles.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from perf.trace import ROOT
from repro.bench.scale import random_connected_graph, write_random_edge_file
from repro.cluster.graph_linkage import graph_single_linkage
from repro.cluster.single_linkage import single_linkage
from repro.core import api
from repro.core.dynamic import DynamicSLD
from repro.datasets.points import gaussian_blobs
from repro.datasets.synthetic_graphs import preferential_attachment_graph
from repro.dendrogram import snapshot
from repro.dendrogram.lca import DendrogramIndex
from repro.dendrogram.query import QueryEngine
from repro.dendrogram.structure import Dendrogram
from repro.io import edgefile
from repro.trees import mst as mst_mod
from repro.trees.wtree import WeightedTree

__all__ = ["WORKLOADS", "Record", "Workload", "digest"]

#: Pairs per query batch, and distinct batches in each workload's pool.
BATCH = 1024
POOL = 64


@dataclass
class Record:
    """What one child measured and checked."""

    refresh_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    construct_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        """Count one verification check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {name}")


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict[str, Any]
    smoke: dict[str, Any]
    #: Children per workload when the runner is not time-boxed.
    repeats: int
    make_inputs: Callable[[dict[str, Any], int, Path], None]
    #: ``(params, workdir, inputs, tracer, record, verify, setup result) -> output``
    run: Callable[..., Any]
    #: ``(params, workdir, inputs, output, record) -> None``
    verify: Callable[..., None]
    #: ``(params, inputs, record) -> setup result``: program state built in
    #: the child before the timed work (the serving engine), timed into
    #: ``record.construct_s``.
    setup: Callable[[dict[str, Any], Any, Record], Any] | None = None


def digest(workdir: Path) -> str:
    """sha256 over every generated input, in file and array name order.

    Arrays are hashed by name, dtype, shape and contents rather than by
    archive bytes, so only a change to the generated values moves it.
    """
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode())
        if path.suffix == ".npz":
            with np.load(path) as data:
                for key in sorted(data.files):
                    arr = np.ascontiguousarray(data[key])
                    h.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
                    h.update(arr.tobytes())
            continue
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _pair_pool(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 1])
    return rng.integers(0, n, size=(POOL, BATCH, 2), dtype=np.int64)


def _save(workdir: Path, **arrays: np.ndarray) -> None:
    np.savez(workdir / "inputs.npz", **arrays)


def _answer_first(engine: QueryEngine, pairs: np.ndarray, rec: Record) -> np.ndarray:
    """The first query batch of a refresh (timed as part of the refresh)."""
    rec.attempted += 1
    return engine.merge_heights(pairs)


def _read(engine: QueryEngine, pool: np.ndarray, start: int, count: int, rec: Record) -> None:
    for i in range(count):
        pairs = pool[(start + i) % len(pool)]
        rec.attempted += 1
        t0 = time.perf_counter()
        engine.merge_heights(pairs)
        rec.query_s.append(time.perf_counter() - t0)


def _check_heights(rec: Record, dend: Any, pairs: np.ndarray, heights: np.ndarray) -> None:
    oracle = DendrogramIndex(dend).merge_heights(pairs)
    rec.check(
        "merge heights equal the in-memory DendrogramIndex", np.array_equal(oracle, heights)
    )


def _reference_parents(tree: WeightedTree) -> np.ndarray:
    return api.single_linkage_dendrogram(tree, algorithm="sequf", backend="reference").parents


# -- graph-1m: random graph -> array Boruvka -> SLD -> snapshot ---------------
def _graph_inputs(p: dict[str, Any], seed: int, workdir: Path) -> None:
    n, edges, weights = random_connected_graph(p["m"], seed=seed)
    _save(workdir, n=np.int64(n), edges=edges, weights=weights, pairs=_pair_pool(n, seed))


def _graph_run(p, workdir, inputs, tracer, rec, verify, state):
    pool = inputs["pairs"]
    with tracer.span(ROOT):
        rec.attempted += 1
        t0 = time.perf_counter()
        result = graph_single_linkage(
            int(inputs["n"]), inputs["edges"], inputs["weights"], mst_method="boruvka"
        )
        engine = QueryEngine(snapshot.build_snapshot(result.dendrogram))
        first = _answer_first(engine, pool[0], rec)
        rec.refresh_s.append(time.perf_counter() - t0)
        _read(engine, pool, 1, p["queries"], rec)
    return result, first


def _graph_verify(p, workdir, inputs, output, rec):
    result, first = output
    edges, weights = inputs["edges"], inputs["weights"]
    ids = np.sort(mst_mod.kruskal_mst(int(inputs["n"]), edges, weights))
    rec.check(
        "Boruvka MST equals in-memory Kruskal",
        np.array_equal(result.mst.edges, edges[ids])
        and np.array_equal(result.mst.weights, weights[ids]),
    )
    rec.check(
        "parents equal reference sequf",
        np.array_equal(result.dendrogram.parents, _reference_parents(result.mst)),
    )
    _check_heights(rec, result.dendrogram, inputs["pairs"][0], first)


# -- points-blobs: Gaussian blobs -> k-NN + bridging -> MST -> SLD -> snapshot -
def _points_inputs(p: dict[str, Any], seed: int, workdir: Path) -> None:
    points, _ = gaussian_blobs(
        p["n"], centers=p["centers"], dim=p["dim"], spread=p["spread"], box=p["box"], seed=seed
    )
    _save(workdir, points=points, pairs=_pair_pool(p["n"], seed))


def _points_run(p, workdir, inputs, tracer, rec, verify, state):
    pool = inputs["pairs"]
    with tracer.span(ROOT):
        rec.attempted += 1
        t0 = time.perf_counter()
        result = single_linkage(inputs["points"], k=p["k"])
        engine = QueryEngine(snapshot.build_snapshot(result.dendrogram))
        first = _answer_first(engine, pool[0], rec)
        rec.refresh_s.append(time.perf_counter() - t0)
        _read(engine, pool, 1, p["queries"], rec)
    return result, first


def _points_verify(p, workdir, inputs, output, rec):
    result, first = output
    reference = single_linkage(inputs["points"], k=p["k"], backend="reference")
    rec.check(
        "parents equal the reference-backend run",
        np.array_equal(result.mst.edges, reference.mst.edges)
        and np.array_equal(result.dendrogram.parents, reference.dendrogram.parents),
    )
    _check_heights(rec, result.dendrogram, inputs["pairs"][0], first)


# -- redg-2m: REDG1 file -> streaming Kruskal -> SLD -> save -> mmap load ------
def _redg_inputs(p: dict[str, Any], seed: int, workdir: Path) -> None:
    n = write_random_edge_file(workdir / "graph.redg", p["m"], seed=seed)
    _save(workdir, pairs=_pair_pool(n, seed))


def gather_tree(path: Path, n: int, ids: np.ndarray, chunk: int) -> WeightedTree:
    """The chosen edges of an edge file, read chunk by chunk, never all at once."""
    ids = np.sort(ids)
    edges = np.empty((ids.size, 2), dtype=np.int64)
    weights = np.empty(ids.size, dtype=np.float64)
    for start, e, w in edgefile.iter_edge_chunks(path, chunk):
        lo, hi = np.searchsorted(ids, [start, start + w.size])
        local = ids[lo:hi] - start
        edges[lo:hi] = e[local]
        weights[lo:hi] = w[local]
    return WeightedTree(n, edges, weights, validate=False)


def _redg_run(p, workdir, inputs, tracer, rec, verify, state):
    pool = inputs["pairs"]
    path = workdir / "graph.redg"
    snap_path = workdir / "snapshot.npz"
    with tracer.span(ROOT):
        rec.attempted += 1
        t0 = time.perf_counter()
        n, ids = mst_mod.streaming_kruskal_mst(path, chunk=p["chunk"])
        with tracer.span("io.gather"):
            tree = gather_tree(path, n, ids, p["chunk"])
        dend = api.single_linkage_dendrogram(tree)
        snapshot.save_snapshot(snap_path, dend)
        engine = QueryEngine(snapshot.load_snapshot(snap_path, mmap=True))
        first = _answer_first(engine, pool[0], rec)
        rec.refresh_s.append(time.perf_counter() - t0)
        _read(engine, pool, 1, p["queries"], rec)
    return ids, dend, first


def _redg_verify(p, workdir, inputs, output, rec):
    ids, dend, first = output
    n, edges, weights = edgefile.read_edge_file(workdir / "graph.redg")
    rec.check(
        "streaming Kruskal ids equal in-memory Kruskal",
        np.array_equal(np.sort(ids), np.sort(mst_mod.kruskal_mst(n, edges, weights))),
    )
    del edges, weights
    _check_heights(rec, dend, inputs["pairs"][0], first)


# -- serve-mixed: dynamic engine, closed-loop updates and reads -----------------
def _serve_inputs(p: dict[str, Any], seed: int, workdir: Path) -> None:
    n, edges = preferential_attachment_graph(p["n"], m_attach=p["m_attach"], seed=seed)
    rng = np.random.default_rng([seed, 2])
    weights = rng.random(edges.shape[0])
    present = set(map(tuple, edges.tolist()))
    inserts = np.empty((p["rounds"], p["inserts"], 2), dtype=np.int64)
    for r in range(p["rounds"]):
        fresh: set[tuple[int, int]] = set()
        while len(fresh) < p["inserts"]:
            u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
            if u != v and (u, v) not in present:
                fresh.add((u, v))
        inserts[r] = sorted(fresh)
    _save(
        workdir,
        n=np.int64(n),
        edges=edges,
        weights=weights,
        inserts=inserts,
        insert_weights=rng.random((p["rounds"], p["inserts"])),
        thresholds=rng.random(2 * p["rounds"]),
        pairs=_pair_pool(n, seed),
    )


def _serve_setup(p, inputs, rec):
    """Build the engine the closed loop serves from (median of a few builds)."""
    for _ in range(p["constructions"]):
        rec.attempted += 1
        t0 = time.perf_counter()
        dyn = DynamicSLD.from_graph(int(inputs["n"]), inputs["edges"], inputs["weights"])
        QueryEngine(dyn.snapshot())
        rec.construct_s.append(time.perf_counter() - t0)
    return dyn


def _serve_run(p, workdir, inputs, tracer, rec, verify, dyn):
    pool, thresholds = inputs["pairs"], inputs["thresholds"]
    # Each round inserts fresh edges, reads, deletes them again and reads:
    # the graph is back at its start state after every round.
    updates = []
    for pairs, ws in zip(inputs["inserts"], inputs["insert_weights"]):
        inserts = [(int(u), int(v), float(w)) for (u, v), w in zip(pairs, ws)]
        updates.append({"inserts": inserts})
        updates.append({"deletes": [(int(u), int(v)) for u, v in pairs]})
    start_parents, start_edges = dyn.parents.copy(), dyn.edges.copy()
    #: (round whose inserts are in the graph, or -1; pairs; answers) per refresh
    samples: list[tuple[int, np.ndarray, np.ndarray]] = []
    #: (tree edges, tree weights, parents) at every 10th refresh
    states: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    cursor = 0
    with tracer.span(ROOT):
        for k, update in enumerate(updates):
            rec.attempted += 1
            t0 = time.perf_counter()
            dyn.apply_batch(**update)
            engine = QueryEngine(dyn.snapshot())
            first = _answer_first(engine, pool[cursor % POOL], rec)
            rec.refresh_s.append(time.perf_counter() - t0)
            if verify:
                graph_state = k // 2 if "inserts" in update else -1
                samples.append((graph_state, pool[cursor % POOL][:64], first[:64]))
                if (k + 1) % 10 == 0:
                    states.append((dyn.edges.copy(), dyn.weights.copy(), dyn.parents.copy()))
            _read(engine, pool, cursor + 1, p["reads"], rec)
            cursor += p["reads"] + 1
            rec.attempted += 2
            engine.cut_at(float(thresholds[k]))
            engine.cluster_of(pool[cursor % POOL][:, 0], float(thresholds[k]))
            if verify and "deletes" in update:
                rec.check(
                    f"round {k // 2} returns the engine to its start state",
                    np.array_equal(dyn.parents, start_parents)
                    and np.array_equal(dyn.edges, start_edges),
                )
    return samples, states


def _serve_verify(p, workdir, inputs, output, rec):
    samples, states = output
    n = int(inputs["n"])
    for edges, weights, parents in states:
        tree = WeightedTree(n, edges, weights, validate=False)
        rec.check(
            "refresh parents equal reference sequf",
            np.array_equal(parents, _reference_parents(tree)),
        )
    # One oracle per graph state -- the start graph, or it plus one round's
    # inserts -- solved from scratch by in-memory Kruskal and reference sequf.
    indexes: dict[int, DendrogramIndex] = {}
    for graph_state, pairs, heights in samples:
        if graph_state not in indexes:
            edges, weights = inputs["edges"], inputs["weights"]
            if graph_state >= 0:
                edges = np.concatenate([edges, inputs["inserts"][graph_state]])
                weights = np.concatenate([weights, inputs["insert_weights"][graph_state]])
            ids = np.sort(mst_mod.kruskal_mst(n, edges, weights))
            tree = WeightedTree(n, edges[ids], weights[ids], validate=False)
            dend = Dendrogram(tree, _reference_parents(tree))
            indexes[graph_state] = DendrogramIndex(dend)
        index = indexes[graph_state]
        oracle = np.array([index.merge_height(int(u), int(v)) for u, v in pairs])
        rec.check(
            "sampled merge heights equal DendrogramIndex.merge_height",
            np.array_equal(oracle, heights),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="graph-1m",
            full={"m": 1_000_000, "queries": 300},
            smoke={"m": 20_000, "queries": 20},
            repeats=5,
            make_inputs=_graph_inputs,
            run=_graph_run,
            verify=_graph_verify,
        ),
        Workload(
            name="points-blobs",
            full={
                "n": 8192, "centers": 16, "dim": 4, "spread": 0.5, "box": 20.0, "k": 8,
                "queries": 1000,
            },
            smoke={
                "n": 512, "centers": 4, "dim": 4, "spread": 0.5, "box": 20.0, "k": 8,
                "queries": 20,
            },
            repeats=5,
            make_inputs=_points_inputs,
            run=_points_run,
            verify=_points_verify,
        ),
        Workload(
            name="redg-2m",
            full={"m": 2_000_000, "chunk": 2**18, "queries": 40},
            smoke={"m": 40_000, "chunk": 2**12, "queries": 20},
            repeats=5,
            make_inputs=_redg_inputs,
            run=_redg_run,
            verify=_redg_verify,
        ),
        Workload(
            name="serve-mixed",
            full={
                "n": 20_000, "m_attach": 4, "rounds": 12, "inserts": 8, "reads": 20,
                "constructions": 3,
            },
            smoke={
                "n": 1_000, "m_attach": 4, "rounds": 2, "inserts": 8, "reads": 4,
                "constructions": 1,
            },
            repeats=2,
            make_inputs=_serve_inputs,
            run=_serve_run,
            verify=_serve_verify,
            setup=_serve_setup,
        ),
    )
}
