"""Binary edge files and external-sort spill runs (the out-of-core layer).

``REDG1`` is a raw binary edge-list format sized for graphs that do not
fit in RAM: a fixed 24-byte header (8-byte magic, ``n`` int64, ``m``
int64) followed by the ``(m, 2)`` int64 endpoint table (C order) and the
``(m,)`` float64 weight vector.  Everything streams: the reader yields
bounded chunks, never materializing the file.  Files are written with
:func:`repro.io.atomic_write` and their header is checked by
:func:`repro.io.read_header`, the idiom the snapshot format shares.

On top of the reader sit the two halves of an external sort by the
deterministic ``(weight, edge-id)`` rank key:

* :func:`spill_runs` reads the file chunk-by-chunk, validates each chunk
  (the streamed twin of ``repro.trees.validation.check_graph``), sorts it by
  the rank key (a stable weight sort -- ids are ascending within a
  chunk), and writes each sorted run to a spill directory as packed
  :data:`RUN_DTYPE` records.
* :func:`merge_runs` k-way-merges the runs back into globally
  rank-ordered batches while holding only one bounded block per run: per
  round every live run's block is topped up, the *bound* is the smallest
  block-last key among runs with unread data (every unread record
  compares strictly greater -- keys are unique), and all buffered
  records at or below the bound are emitted after one lexsort.  The
  bounding run drains its whole block, so each round makes at least one
  block of progress.

Peak memory is ``O(chunk)`` records in both halves regardless of ``m``,
which is what lets ``repro.trees.mst.streaming_kruskal_mst`` process
10^7-edge files under a fixed budget.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path
from typing import IO

import numpy as np

from repro.errors import InvalidGraphError
from repro.io import FormatError, atomic_write, pack_header, read_header

__all__ = [
    "EDGEFILE_MAGIC",
    "EDGEFILE_HEADER_BYTES",
    "RUN_DTYPE",
    "write_edge_file",
    "read_edge_header",
    "iter_edge_chunks",
    "read_edge_file",
    "spill_runs",
    "merge_runs",
]

#: 8-byte magic opening every REDG1 file.
EDGEFILE_MAGIC = b"REDG1\x00\x00\x00"

#: Header size: magic + n (int64) + m (int64).
EDGEFILE_HEADER_BYTES = len(EDGEFILE_MAGIC) + 16

#: Spill-run record: the rank key (weight, id) plus the endpoints.
RUN_DTYPE = np.dtype([("w", "<f8"), ("id", "<i8"), ("u", "<i8"), ("v", "<i8")])

_EDGE_RECORD_BYTES = 16  # one (u, v) int64 pair


def write_edge_file(
    path: str | Path, n: int, edges: np.ndarray, weights: np.ndarray
) -> None:
    """Write a REDG1 edge file atomically (see :func:`repro.io.atomic_write`).

    No validation beyond shape -- the reader validates, so hostile files
    exercise the streaming error contract."""
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if edges.ndim != 2 or (edges.size and edges.shape[1] != 2):
        raise InvalidGraphError(f"edges must have shape (m, 2), got {edges.shape}")
    if weights.shape != (edges.shape[0],):
        raise InvalidGraphError("need exactly one weight per edge")
    with atomic_write(path) as fh:
        fh.write(pack_header(EDGEFILE_MAGIC, n, edges.shape[0]))
        fh.write(edges)
        fh.write(weights)


def _edge_file_bytes(n: int, m: int) -> int:
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return EDGEFILE_HEADER_BYTES + m * (_EDGE_RECORD_BYTES + 8)


def _read_header(fh: IO[bytes], path: str | Path) -> tuple[int, int]:
    n, m = read_header(fh, path, "REDG1 edge file", EDGEFILE_MAGIC, ("n", "m"), _edge_file_bytes)
    return n, m


def read_edge_header(path: str | Path) -> tuple[int, int]:
    """``(n, m)`` from a REDG1 header (size-checked against the payload)."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def iter_edge_chunks(
    path: str | Path, chunk: int, validate: bool = True
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(start_id, edges, weights)`` chunks of at most ``chunk`` edges.

    Chunks arrive in file (= edge-id) order; ``start_id`` is the global id
    of the chunk's first edge.  With ``validate=True`` each chunk is
    checked like ``check_graph`` (endpoint range, self loops, finite
    weights) and the first offending chunk raises
    :class:`~repro.errors.InvalidGraphError`.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    with open(path, "rb") as fh:
        n, m = _read_header(fh, path)
        weights_off = EDGEFILE_HEADER_BYTES + m * _EDGE_RECORD_BYTES
        start = 0
        while start < m:
            count = min(chunk, m - start)
            fh.seek(EDGEFILE_HEADER_BYTES + start * _EDGE_RECORD_BYTES)
            flat = np.fromfile(fh, dtype=np.int64, count=2 * count)
            if flat.size != 2 * count:
                raise FormatError(f"{path}: truncated endpoint table")
            edges = flat.reshape(count, 2)
            fh.seek(weights_off + start * 8)
            weights = np.fromfile(fh, dtype=np.float64, count=count)
            if weights.size != count:
                raise FormatError(f"{path}: truncated weight vector")
            if validate:
                _validate_chunk(n, edges, weights, start, path)
            yield start, edges, weights
            start += count


def _validate_chunk(
    n: int, edges: np.ndarray, weights: np.ndarray, start: int, path: str | Path
) -> None:
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise InvalidGraphError(
            f"{path}: chunk at edge {start}: endpoints must lie in [0, {n})"
        )
    if (edges[:, 0] == edges[:, 1]).any():
        raise InvalidGraphError(f"{path}: chunk at edge {start}: self loops are not allowed")
    if not np.isfinite(weights).all():
        raise InvalidGraphError(f"{path}: chunk at edge {start}: weights must be finite")


def read_edge_file(path: str | Path) -> tuple[int, np.ndarray, np.ndarray]:
    """Materialize a whole REDG1 file as ``(n, edges, weights)``.

    Convenience for files known to fit in RAM (tests, the instrumented
    paths); the streaming pipelines never call this.
    """
    n, m = read_edge_header(path)
    edges = np.empty((m, 2), dtype=np.int64)
    weights = np.empty(m, dtype=np.float64)
    for start, e, w in iter_edge_chunks(path, chunk=max(m, 1)):
        edges[start : start + e.shape[0]] = e
        weights[start : start + w.size] = w
    return n, edges, weights


def spill_runs(path: str | Path, spill_dir: str | Path, chunk: int) -> list[Path]:
    """External-sort phase 1: write rank-sorted runs of ``chunk`` edges.

    Each run is a packed :data:`RUN_DTYPE` file sorted by the ``(weight,
    id)`` rank key -- ids ascend within a chunk, so one stable weight
    sort realizes the lexicographic key.  Returns the run paths in file
    order.  Peak memory is one chunk of records.
    """
    spill_dir = Path(spill_dir)
    spill_dir.mkdir(parents=True, exist_ok=True)
    runs: list[Path] = []
    for start, edges, weights in iter_edge_chunks(path, chunk):
        count = weights.size
        run = np.empty(count, dtype=RUN_DTYPE)
        order = np.argsort(weights, kind="stable")
        run["w"] = weights[order]
        run["id"] = start + order
        run["u"] = edges[order, 0]
        run["v"] = edges[order, 1]
        run_path = spill_dir / f"run-{len(runs):06d}.bin"
        run.tofile(run_path)
        runs.append(run_path)
    return runs


def merge_runs(runs: list[Path], merge_block: int) -> Iterator[np.ndarray]:
    """External-sort phase 2: yield :data:`RUN_DTYPE` batches in exact
    global ``(weight, id)`` order.

    Holds at most ``merge_block`` records per run plus one output batch;
    the concatenation of all yielded batches is the fully sorted record
    stream.  ``(weight, id)`` keys are unique (ids are), so the order --
    and everything downstream -- is deterministic.
    """
    if merge_block < 1:
        raise ValueError(f"merge_block must be >= 1, got {merge_block}")
    handles = [open(p, "rb") for p in runs]
    try:
        buffers = [np.empty(0, dtype=RUN_DTYPE) for _ in runs]
        live = [True] * len(runs)  # run still has unread records on disk
        while True:
            # Top up every buffer whose run still has data behind it.
            for i, fh in enumerate(handles):
                if live[i] and buffers[i].size < merge_block:
                    fresh = np.fromfile(fh, dtype=RUN_DTYPE, count=merge_block - buffers[i].size)
                    if fresh.size < merge_block - buffers[i].size:
                        live[i] = False
                    if fresh.size:
                        buffers[i] = (
                            np.concatenate((buffers[i], fresh))  # noqa: RPR204 -- capped at merge_block
                            if buffers[i].size
                            else fresh
                        )
            if not any(buf.size for buf in buffers):
                return
            # Every unread record exceeds its run's buffered tail, so the
            # smallest live tail bounds what is safe to emit this round.
            bound: tuple[float, int] | None = None
            for i, buf in enumerate(buffers):
                if live[i] and buf.size:
                    tail = (float(buf["w"][-1]), int(buf["id"][-1]))
                    if bound is None or tail < bound:
                        bound = tail
            take: list[np.ndarray] = []
            for i, buf in enumerate(buffers):
                if not buf.size:
                    continue
                if bound is None:
                    k = buf.size
                else:
                    below = buf["w"] < bound[0]
                    at = (buf["w"] == bound[0]) & (buf["id"] <= bound[1])
                    k = int(np.count_nonzero(below | at))
                if k:
                    take.append(buf[:k])
                    buffers[i] = buf[k:]
            batch = (
                np.concatenate(take)  # noqa: RPR204 -- one bounded batch per yield
                if len(take) > 1
                else take[0]
            )
            batch = batch[np.lexsort((batch["id"], batch["w"]))]
            yield batch
    finally:
        for fh in handles:
            fh.close()
