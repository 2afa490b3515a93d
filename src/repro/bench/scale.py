"""Scale experiments for the array pipeline (``python -m repro bench scale``).

Two measurements back the end-to-end claims the kernel registry's quick
sizes cannot reach:

* **speedup** -- one full ``graph_single_linkage`` run (Boruvka MST +
  dendrogram) at ``m >= 10**6`` edges, timed with ``backend="reference"``
  and ``backend="array"``; the acceptance bar is a >= 2x wall-clock
  ratio (the outputs are bit-identical by construction, and the run
  re-checks that here).
* **streaming** -- one out-of-core :func:`streaming_kruskal_mst` run at
  ``m = 10**7`` edges, executed in a *child process* so its
  ``ru_maxrss`` reflects only the streaming consumer, never the
  generator that wrote the edge file.  The acceptance bar is completion
  (``n - 1`` edges chosen) with peak RSS under
  :data:`STREAM_RSS_BUDGET_MB` -- a fixed ceiling sized to the chunk
  budget, far below what materializing the edge list in memory costs.
* **points** -- one ``single_linkage(gaussian_blobs(n, centers=16,
  dim=4), k=8)`` run at ``n = 32 768`` points in a child process, metered
  the same way.  The run must complete (``n - 1`` MST edges) under
  :func:`points_rss_budget_mb`, the k-NN stage's O(n*k) bound; the dense
  n x n distance matrix alone would be 8 GiB.

``--merge PATH`` injects the results as a top-level ``"scale"`` section
into an existing ``BENCH_*.json`` (the baseline schema tolerates extra
top-level keys and the regression gate ignores them), which is how the
numbers are pinned in-repo and gated by ``tests/test_bench_perf.py``.
``--smoke`` runs the streaming leg at ``m = 10**6`` and the points leg
at ``n = 16 384`` (160 MiB budget) -- the CI job that gates both
memory bounds under slab contracts on every push.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

__all__ = [
    "POINTS_N",
    "SPEEDUP_EDGES",
    "STREAM_CHUNK",
    "STREAM_EDGES",
    "STREAM_RSS_BUDGET_MB",
    "main",
    "points_rss_budget_mb",
    "random_connected_graph",
    "run_points",
    "run_speedup",
    "run_streaming",
    "write_random_edge_file",
]

#: Edge counts for the two legs (the ISSUE's acceptance sizes).
SPEEDUP_EDGES = 1_000_000
STREAM_EDGES = 10_000_000
#: Spill/merge chunk for the out-of-core leg: 2**18 records (~6 MiB of
#: raw edge payload per chunk).
STREAM_CHUNK = 262_144
#: Peak-RSS ceiling for the streaming child process.  Interpreter +
#: numpy cost ~60 MiB before any work; the spill/merge path holds
#: O(chunk) records across a handful of buffers plus the O(n)
#: union-find arrays (~240 MiB total measured at m=10**7, n=2.5*10**6,
#: chunk=2**18).  320 MiB leaves CI headroom while staying well under
#: the measured in-memory materialization peak, which the run records
#: alongside for an apples-to-apples gate.
STREAM_RSS_BUDGET_MB = 320.0
#: Point count of the points leg (the smoke run uses half).
POINTS_N = 32_768


def points_rss_budget_mb(n: int) -> float:
    """Peak-RSS ceiling for the points child at ``n`` points.

    128 MiB for the interpreter, numpy and scipy (``scipy.spatial``
    included), plus 2 KiB per point for the k-NN stage's O(n*k) arrays at
    k = 8 -- eleven k-d tree candidates per point with their distances
    and helper weights, then the selected pairs -- which measured about
    0.7 KiB per point (82.7 MiB peak at n = 16 384 and 93.4 MiB at
    32 768, on a 65 MiB baseline): 160 MiB at ``n = 16 384``, where the
    dense distance matrix alone would be 2 GiB.
    """
    return 128.0 + 2048 * n / 2**20


def random_connected_graph(
    m: int, seed: int = 0
) -> tuple[int, np.ndarray, np.ndarray]:
    """Connected graph with exactly ``m`` edges, built vectorized.

    A Hamiltonian path guarantees connectivity; the remaining edges are
    uniform random non-self-loop pairs (parallel edges allowed -- both
    MST paths handle them).  ``n = max(2, m // 4)`` keeps the density of
    the kernel registry's preferential-attachment inputs.
    """
    if m < 1:
        raise ValueError(f"need at least one edge, got {m}")
    n = max(2, m // 4)
    rng = np.random.default_rng(seed)
    path_edges = np.column_stack(
        [np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)]
    )
    extra = max(0, m - (n - 1))
    u = rng.integers(0, n, size=extra, dtype=np.int64)
    # v = u + delta (mod n) with delta in [1, n): never a self loop.
    v = (u + rng.integers(1, n, size=extra, dtype=np.int64)) % n
    edges = np.concatenate([path_edges, np.column_stack([u, v])])[:m]
    weights = rng.random(edges.shape[0], dtype=np.float64)
    return n, edges, weights


def run_speedup(m: int = SPEEDUP_EDGES, repeats: int = 2, seed: int = 0) -> dict:
    """Time the end-to-end pipeline, reference vs array, at ``m`` edges."""
    from repro.cluster.graph_linkage import graph_single_linkage

    n, edges, weights = random_connected_graph(m, seed=seed)
    walls: dict[str, float] = {}
    parents: dict[str, np.ndarray] = {}
    for backend in ("reference", "array"):
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = graph_single_linkage(n, edges, weights, backend=backend)
            best = min(best, time.perf_counter() - t0)
        walls[backend] = best
        parents[backend] = result.dendrogram.parents
    bit_identical = bool(np.array_equal(parents["reference"], parents["array"]))
    return {
        "m": int(edges.shape[0]),
        "n": int(n),
        "repeats": int(repeats),
        "reference_s": walls["reference"],
        "array_s": walls["array"],
        "speedup": walls["reference"] / walls["array"],
        "bit_identical": bit_identical,
    }


def write_random_edge_file(
    path: str | Path, m: int, seed: int = 1, slice_size: int = 1 << 20
) -> int:
    """Write an ``m``-edge connected REDG1 file in slices; returns ``n``.

    Same shape as :func:`random_connected_graph` (Hamiltonian path +
    uniform extras, ``n = max(2, m // 4)``) but generated and written
    ``slice_size`` records at a time, so the writer's RSS stays at
    O(slice), never O(m).  REDG1 stores the edge block and the weight
    block separately, so each slice is two positioned writes.  The file
    is written atomically, like :func:`repro.io.edgefile.write_edge_file`.
    """
    from repro.io import atomic_write, pack_header
    from repro.io.edgefile import EDGEFILE_HEADER_BYTES, EDGEFILE_MAGIC

    if m < 1:
        raise ValueError(f"need at least one edge, got {m}")
    n = max(2, m // 4)
    weight_off = EDGEFILE_HEADER_BYTES + 16 * m
    with atomic_write(path) as fh:
        fh.write(pack_header(EDGEFILE_MAGIC, n, m))
        for start in range(0, m, slice_size):
            stop = min(m, start + slice_size)
            rng = np.random.default_rng((seed, start))
            count = stop - start
            u = rng.integers(0, n, size=count, dtype=np.int64)
            v = (u + rng.integers(1, n, size=count, dtype=np.int64)) % n
            # Records 0..n-2 are the connectivity path (i, i+1).
            idx = np.arange(start, stop, dtype=np.int64)
            on_path = idx < n - 1
            u[on_path] = idx[on_path]
            v[on_path] = idx[on_path] + 1
            weights = rng.random(count, dtype=np.float64)
            fh.seek(EDGEFILE_HEADER_BYTES + 16 * start)
            fh.write(np.column_stack([u, v]))
            fh.seek(weight_off + 8 * start)
            fh.write(weights)
    return n


# Executed via ``python -c`` in a fresh process.  ``ru_maxrss`` survives
# fork+exec, so the child would inherit the parent's peak; instead each
# child resets the kernel high-water mark (``/proc/self/clear_refs``)
# after imports and input set-up and reports ``VmHWM``, which then covers
# exactly the measured run (plus the resident interpreter/numpy baseline).
_CHILD_PRELUDE = """\
import json, resource, sys, time

import numpy as np


def peak_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak():
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass
    return peak_mb()
"""

_STREAM_CHILD_SOURCE = _CHILD_PRELUDE + """\
from repro.io.edgefile import iter_edge_chunks, read_edge_header
from repro.trees.mst import kruskal_mst, streaming_kruskal_mst

path, chunk, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
baseline = reset_peak()
t0 = time.perf_counter()
if mode == "stream":
    n, ids = streaming_kruskal_mst(path, chunk=chunk)
else:
    edge_parts, weight_parts = [], []
    for _, e, w in iter_edge_chunks(path, 1 << 20):
        edge_parts.append(e)
        weight_parts.append(w)
    edges = np.concatenate(edge_parts)
    weights = np.concatenate(weight_parts)
    del edge_parts, weight_parts
    n, _ = read_edge_header(path)
    ids = kruskal_mst(n, edges, weights)
wall = time.perf_counter() - t0
print(json.dumps({
    "n": int(n),
    "chosen": int(ids.shape[0]),
    "wall_s": wall,
    "baseline_rss_mb": baseline,
    "peak_rss_mb": peak_mb(),
}))
"""

_POINTS_CHILD_SOURCE = _CHILD_PRELUDE + """\
from repro.cluster.single_linkage import single_linkage
from repro.datasets.points import gaussian_blobs

n = int(sys.argv[1])
points, _ = gaussian_blobs(n, centers=16, dim=4, seed=0)
baseline = reset_peak()
t0 = time.perf_counter()
result = single_linkage(points, k=8)
wall = time.perf_counter() - t0
print(json.dumps({
    "n": n,
    "mst_edges": int(result.mst.m),
    "wall_s": wall,
    "baseline_rss_mb": baseline,
    "peak_rss_mb": peak_mb(),
}))
"""


def _run_child(source: str, *args: object) -> dict:
    """Run ``source`` in a fresh interpreter on this checkout's ``src``;
    return the JSON line it prints."""
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", source, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"scale child {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_streaming(
    m: int = STREAM_EDGES, chunk: int = STREAM_CHUNK, seed: int = 1
) -> dict:
    """Out-of-core MST over an ``m``-edge REDG1 file, RSS-metered.

    The edge file is written here in slices (the parent never
    materializes the graph), then two child processes consume it -- one
    streaming, one materializing everything for in-memory
    :func:`kruskal_mst` -- each reporting wall time and its own peak
    RSS, so the recorded memory saving is measured, not estimated.
    """
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as tmp:
        path = Path(tmp) / "graph.redg"
        write_random_edge_file(path, m, seed=seed)
        stream = _run_child(_STREAM_CHILD_SOURCE, path, chunk, "stream")
        in_memory = _run_child(_STREAM_CHILD_SOURCE, path, chunk, "inmemory")
    if stream["chosen"] != in_memory["chosen"]:
        raise RuntimeError(
            f"streaming chose {stream['chosen']} edges, "
            f"in-memory chose {in_memory['chosen']}"
        )
    return {
        "m": int(m),
        "chunk": int(chunk),
        "rss_budget_mb": STREAM_RSS_BUDGET_MB,
        "completed": stream["chosen"] == stream["n"] - 1,
        "in_memory_wall_s": in_memory["wall_s"],
        "in_memory_peak_rss_mb": in_memory["peak_rss_mb"],
        **stream,
    }


def run_points(n: int) -> dict:
    """The points pipeline at ``n`` points in a child process, RSS-metered.

    Raises :class:`RuntimeError` unless the run spans all ``n`` points
    (``n - 1`` MST edges) with peak RSS under
    :func:`points_rss_budget_mb`.
    """
    leg = _run_child(_POINTS_CHILD_SOURCE, n)
    leg["rss_budget_mb"] = points_rss_budget_mb(n)
    leg["completed"] = leg["mst_edges"] == n - 1
    if not leg["completed"] or leg["peak_rss_mb"] > leg["rss_budget_mb"]:
        raise RuntimeError(f"points leg failed its bound: {leg}")
    return leg


def merge_into(baseline_path: str | Path, scale: dict) -> None:
    """Attach ``scale`` as a top-level section of an existing baseline."""
    from repro.bench.baseline import load_baseline, save_baseline

    payload = load_baseline(baseline_path)
    payload["scale"] = scale
    save_baseline(baseline_path, payload)


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(prog="repro bench scale")
    parser.add_argument("--m-speedup", type=int, default=SPEEDUP_EDGES)
    parser.add_argument("--m-stream", type=int, default=STREAM_EDGES)
    parser.add_argument("--chunk", type=int, default=STREAM_CHUNK)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="streaming leg at 10**6 edges and points leg at 16 384 points "
        "(the CI smoke job)",
    )
    parser.add_argument(
        "--merge",
        metavar="BENCH_JSON",
        help="inject the results as the 'scale' section of this baseline",
    )
    args = parser.parse_args(argv if argv is not None else [])

    scale: dict = {}
    if not args.smoke:
        speedup = run_speedup(m=args.m_speedup, repeats=args.repeats)
        scale["speedup"] = speedup
        print(
            f"speedup   m={speedup['m']} n={speedup['n']}: "
            f"reference {speedup['reference_s']:.2f}s, "
            f"array {speedup['array_s']:.2f}s "
            f"-> {speedup['speedup']:.2f}x "
            f"(bit-identical: {speedup['bit_identical']})"
        )
    m_stream = 1_000_000 if args.smoke else args.m_stream
    streaming = run_streaming(m=m_stream, chunk=args.chunk)
    scale["streaming"] = streaming
    print(
        f"streaming m={streaming['m']} chunk={streaming['chunk']}: "
        f"{streaming['wall_s']:.2f}s, peak RSS {streaming['peak_rss_mb']:.0f} MiB "
        f"(budget {streaming['rss_budget_mb']:.0f} MiB, "
        f"in-memory twin {streaming['in_memory_wall_s']:.2f}s "
        f"at {streaming['in_memory_peak_rss_mb']:.0f} MiB, "
        f"completed: {streaming['completed']})"
    )
    points = run_points(POINTS_N // 2 if args.smoke else POINTS_N)
    scale["points"] = points
    print(
        f"points    n={points['n']} k=8: "
        f"{points['wall_s']:.2f}s, peak RSS {points['peak_rss_mb']:.0f} MiB "
        f"(budget {points['rss_budget_mb']:.0f} MiB, "
        f"completed: {points['completed']})"
    )
    if args.merge:
        merge_into(args.merge, scale)
        print(f"merged 'scale' section into {args.merge}")
    return scale


if __name__ == "__main__":
    main(sys.argv[1:])
