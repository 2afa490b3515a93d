"""Versioned, mmap-able on-disk dendrogram snapshots.

A snapshot is the serving-layer artifact of a computed dendrogram: the
flat int32/float64 slabs every query needs -- tree edges/weights/ranks
and the parent array -- plus a range-maximum index over the leaf order.

Leaf order
----------
List the ``n`` leaves (input vertices) of the dendrogram in depth-first
order and call the merge node of leaves ``i`` and ``i + 1`` *gap* ``i``.
The merge node of any two vertices is then the highest-rank gap between
their leaf positions: the paper's §3.1 path case, where the dendrogram of
a path is the Cartesian tree of its edge ranks, holds for every tree once
the gaps are read in leaf order (the LCA-to-RMQ reduction).  The
snapshot stores ``pos`` (each vertex's leaf position), ``by_rank`` (the
node of each rank) and ``table``, the sparse table of gap ranks:
``table[k, i]`` is the largest rank among gaps ``i .. i + 2**k - 1``
(cut off at the last gap), so any range maximum is two lookups.

File layout (``repro-dendro-snapshot/3``)
-----------------------------------------
A 64-byte header -- the 8-byte magic ``RSNAP3\\0\\0``, then little-endian
int64 ``n``, ``m``, ``levels`` (the table rows) and ``generation``,
zero-padded -- followed by the seven slabs in :data:`_SLAB_DTYPES` order,
little-endian and C-order, each starting on a 64-byte boundary.  The file
ends exactly at the last slab, so the header fixes the file size.

:func:`load_snapshot` checks the header and the size, maps the file once
and cuts aligned read-only ``np.memmap`` views out of it: the OS pages
slabs in on demand and shares them between processes, and every gather
takes numpy's aligned path.  Pass ``mmap=False`` to read the same
offsets into plain in-memory arrays instead.  :func:`save_snapshot`
writes through :func:`repro.io.atomic_write`: a failed save leaves the
previous file in place, and an engine serving a mapped snapshot keeps
its own dendrogram when the path is saved over.

Error contract
--------------
:func:`load_snapshot` raises :class:`~repro.io.FormatError` for anything
that is not a well-formed snapshot: a wrong magic (a
``repro-dendro-snapshot/1`` ``.npz`` archive and a
``repro-dendro-snapshot/2`` file are named as such), a short header,
header fields that disagree (``m != max(0, n - 1)``, ``levels`` other
than the table rows ``n`` needs), a file size other than the header
requires, and cross-field inconsistencies of the slabs (``pos`` or
``table[0]`` not a permutation, ``by_rank`` not inverting ``ranks``,
out-of-range parents).  These checks are ``O(n)``; the table rows above
row 0 are not scanned on load.  Missing files raise ``OSError`` as usual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order

from repro.dendrogram.structure import Dendrogram
from repro.io import FormatError, atomic_write, pack_header, read_header
from repro.trees.wtree import WeightedTree

__all__ = [
    "SNAPSHOT_SCHEMA",
    "DendrogramSnapshot",
    "build_snapshot",
    "save_snapshot",
    "load_snapshot",
]

#: Format tag; bump on layout changes.
SNAPSHOT_SCHEMA = "repro-dendro-snapshot/3"

_MAGIC = b"RSNAP3\0\0"
#: What earlier formats start with, and how a load error names them.
_OLD_MAGICS = {
    b"PK\x03\x04": "a zip archive, as written by repro-dendro-snapshot/1",
    b"RSNAP2\0\0": "a repro-dendro-snapshot/2 file",
}
#: Header bytes and slab alignment.
_ALIGN = 64
#: Edges per step of the ``by_rank`` check in :meth:`DendrogramSnapshot.validate`.
_CHUNK = 1 << 16

#: Slabs in file order and their dtypes.  Shapes follow from the header
#: (:func:`_shapes`) and are checked in :meth:`DendrogramSnapshot.validate`.
_SLAB_DTYPES: dict[str, np.dtype] = {
    "edges": np.dtype("<i4"),
    "weights": np.dtype("<f8"),
    "ranks": np.dtype("<i4"),
    "parents": np.dtype("<i4"),
    "pos": np.dtype("<i4"),
    "by_rank": np.dtype("<i4"),
    "table": np.dtype("<i4"),
}


def _levels(m: int) -> int:
    """Sparse-table rows for ``m`` gaps: ``floor(log2(m)) + 1``, at least one."""
    return max(1, m.bit_length())


def _shapes(n: int, m: int, levels: int) -> dict[str, tuple[int, ...]]:
    return {
        "edges": (m, 2),
        "weights": (m,),
        "ranks": (m,),
        "parents": (m,),
        "pos": (n,),
        "by_rank": (m,),
        "table": (levels, m),
    }


def _layout(n: int, m: int, levels: int) -> tuple[dict[str, int], int]:
    """Byte offset of each slab, and the file size."""
    offsets: dict[str, int] = {}
    end = _ALIGN
    for name, shape in _shapes(n, m, levels).items():
        offsets[name] = -(-end // _ALIGN) * _ALIGN
        end = offsets[name] + _SLAB_DTYPES[name].itemsize * math.prod(shape)
    return offsets, end


def _file_bytes(n: int, m: int, levels: int, generation: int) -> int:
    if n < 1 or m != max(0, n - 1) or levels != _levels(m):
        raise ValueError("need n >= 1, m = max(0, n - 1) and levels = floor(log2(m)) + 1 >= 1")
    return _layout(n, m, levels)[1]


def _is_permutation(values: np.ndarray, size: int) -> bool:
    """Whether the ``size`` entries of ``values`` are a permutation of ``[0, size)``."""
    if values.size and (int(values.min()) < 0 or int(values.max()) >= size):
        return False
    seen = np.zeros(size, dtype=bool)
    seen[values] = True
    return bool(seen.all())


@dataclass
class DendrogramSnapshot:
    """The flat query-ready slabs of one dendrogram.

    All index slabs are int32 (``n < 2**31``), weights are float64.
    Instances loaded with ``mmap=True`` hold read-only ``np.memmap``
    views; nothing in the query layer writes to them.
    """

    n: int
    edges: np.ndarray  # (m, 2) tree edge endpoints
    weights: np.ndarray  # (m,) edge weights = node merge heights
    ranks: np.ndarray  # (m,) rank permutation of the edges
    parents: np.ndarray  # (m,) dendrogram parent array (root self-loops)
    pos: np.ndarray  # (n,) leaf position of each vertex
    by_rank: np.ndarray  # (m,) node (edge id) of each rank: the inverse of ranks
    table: np.ndarray  # (levels, m) sparse table of gap ranks; row 0 = gap ranks
    #: Source generation stamp (see :attr:`repro.core.dynamic.DynamicSLD.
    #: generation`); ``-1`` means the snapshot is unstamped (static source)
    #: and is never considered stale.
    generation: int = -1

    @property
    def m(self) -> int:
        """Number of dendrogram nodes (= tree edges = leaf-order gaps)."""
        return int(self.parents.shape[0])

    @property
    def levels(self) -> int:
        """Sparse-table rows (``floor(log2(m)) + 1``, at least one)."""
        return int(self.table.shape[0])

    @property
    def nbytes(self) -> int:
        """Total slab payload in bytes."""
        return sum(
            int(getattr(self, name).nbytes) for name in _SLAB_DTYPES
        )

    def validate(self) -> None:
        """Raise :class:`FormatError` on any structural inconsistency.

        Every check is a cheap ``O(n)`` pass; table rows above row 0 are
        not scanned.
        """
        n, m = self.n, self.m
        if n < 1 or m != max(0, n - 1):
            raise FormatError(f"snapshot: n={n} is inconsistent with m={m} nodes")
        for name, dtype in _SLAB_DTYPES.items():
            arr = getattr(self, name)
            if arr.dtype != dtype:
                raise FormatError(
                    f"snapshot: member {name!r} has dtype {arr.dtype}, expected {dtype}"
                )
        if self.levels != _levels(m):
            raise FormatError(
                f"snapshot: table has {self.levels} rows, {m} gaps need {_levels(m)}"
            )
        for name, expected in _shapes(n, m, self.levels).items():
            got = tuple(getattr(self, name).shape)
            if got != expected:
                raise FormatError(
                    f"snapshot: member {name!r} has shape {got}, expected {expected}"
                )
        for name in ("parents", "ranks"):
            arr = getattr(self, name)
            if m and (int(arr.min()) < 0 or int(arr.max()) >= m):
                raise FormatError(f"snapshot: member {name!r} has out-of-range values")
        if not _is_permutation(self.pos, n):
            raise FormatError("snapshot: pos is not a permutation of the vertices")
        for lo in range(0, m, _CHUNK):  # chunks keep the temporaries small
            hi = min(lo + _CHUNK, m)
            if not np.array_equal(self.by_rank[self.ranks[lo:hi]], np.arange(lo, hi)):
                raise FormatError("snapshot: by_rank does not invert ranks")
        if not _is_permutation(self.table[0], m):
            raise FormatError("snapshot: table[0] is not a permutation of the ranks")

    def to_dendrogram(self) -> Dendrogram:
        """Reconstruct the (validated) in-memory :class:`Dendrogram`."""
        tree = WeightedTree(
            self.n,
            np.asarray(self.edges, dtype=np.int64),
            np.asarray(self.weights, dtype=np.float64),
        )
        return Dendrogram(tree, np.asarray(self.parents, dtype=np.int64))


def build_snapshot(dend: Dendrogram, generation: int = -1) -> DendrogramSnapshot:
    """Precompute the query slabs of ``dend`` (the save-time ``O(n log n)`` pass).

    :func:`_leaf_order` lists the leaves with one depth-first traversal
    over the ``m`` nodes; table row ``k`` is the elementwise max of row
    ``k - 1`` and its own shift by ``2**(k-1)``.  The traversal's
    temporaries are gone before the table is allocated, so peak memory
    is the table plus a few ``O(n)`` slabs.

    ``generation`` stamps the snapshot with the producing
    :class:`~repro.core.dynamic.DynamicSLD`'s update counter so serving
    layers can detect staleness; leave it at ``-1`` for static sources.
    """
    tree = dend.tree
    n, m = tree.n, dend.m
    if n >= 2**31:
        raise ValueError(f"snapshot slabs are int32; n={n} does not fit")
    edges = tree.edges.astype(np.int32)
    ranks = tree.ranks.astype(np.int32)
    parents = dend.parents.astype(np.int32)
    by_rank = np.empty(m, dtype=np.int32)
    by_rank[ranks] = np.arange(m, dtype=np.int32)
    if m:
        pos, gap_ranks = _leaf_order(edges, ranks, parents, int(by_rank[m - 1]), n)
    else:
        pos, gap_ranks = np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32)
    table = np.empty((_levels(m), m), dtype=np.int32)
    table[0] = gap_ranks
    del gap_ranks
    for k in range(1, table.shape[0]):
        half = 1 << (k - 1)
        np.maximum(table[k - 1, :-half], table[k - 1, half:], out=table[k, :-half])
        table[k, -half:] = table[k - 1, -half:]
    snap = DendrogramSnapshot(
        n=n,
        edges=edges,
        weights=np.asarray(tree.weights, dtype=np.float64),
        ranks=ranks,
        parents=parents,
        pos=pos,
        by_rank=by_rank,
        table=table,
        generation=int(generation),
    )
    snap.validate()
    return snap


def _leaf_order(
    edges: np.ndarray, ranks: np.ndarray, parents: np.ndarray, root: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Leaf position of each vertex, and the rank of each gap (``m >= 1``).

    A vertex is a leaf child of its min-rank incident edge (one min-rank
    scatter); a node's other children are nodes (one min/max scatter over
    the parent array).  List each node's leaf children right after it:
    then the preorder of the whole tree is the preorder of the ``m`` nodes,
    each followed by its leaf children, so one depth-first traversal of
    the nodes alone lists the leaves.  The gap after a leaf is the traversal
    predecessor of the next entry: the node itself when that entry is the
    sibling leaf, else the predecessor of the next node in preorder.
    """
    m = parents.shape[0]
    # The two results come first: arrays that outlive the temporaries
    # below would otherwise pin the freed heap above them in memory.
    pos = np.empty(n, dtype=np.int32)
    gap_ranks = np.empty(m, dtype=np.int32)
    best = np.full(n, m, dtype=np.int32)
    np.minimum.at(best, edges[:, 0], ranks)
    np.minimum.at(best, edges[:, 1], ranks)
    leafy = np.take(best, edges) == ranks[:, None]  # (m, 2): endpoint is a leaf child
    del best
    ids = np.arange(m, dtype=np.int32)
    up = parents.copy()
    up[root] = m  # the root is nobody's child: park it in a spare slot
    lo = np.full(m + 1, m, dtype=np.int32)
    hi = np.full(m + 1, -1, dtype=np.int32)
    np.minimum.at(lo, up, ids)
    np.maximum.at(hi, up, ids)
    del up
    # Two slots per node; a slot without a node child loops back to the
    # node, and the traversal skips it (and a repeated child) as visited.
    children = np.empty((m, 2), dtype=np.int32)
    children[:, 0] = np.where(lo[:m] < m, lo[:m], ids)
    children[:, 1] = np.where(hi[:m] >= 0, hi[:m], ids)
    del lo, hi, ids
    indptr = np.arange(0, 2 * m + 1, 2, dtype=np.int32)
    ones = np.broadcast_to(1.0, 2 * m)  # edge data the traversal never reads
    graph = csr_matrix((ones, children.reshape(-1), indptr), shape=(m, m))
    del children
    order, pred = depth_first_order(graph, root, directed=True, return_predecessors=True)
    del graph
    after = np.empty(m, dtype=np.int32)
    after[:-1] = pred[order[1:]]
    after[-1] = root  # the last leaf has no gap: a placeholder, dropped below
    leafy = np.take(leafy, order, axis=0)
    gaps = np.empty((m, 2), dtype=np.int32)
    gaps[:, 0] = np.where(leafy[:, 1], order, after)
    gaps[:, 1] = after
    at = np.flatnonzero(leafy)  # (node, endpoint) slot of each leaf, in leaf order
    leaves = np.take(np.take(edges, order, axis=0), at)
    np.take(ranks, np.take(gaps, at[:-1]), out=gap_ranks)
    pos[leaves] = np.arange(n, dtype=np.int32)
    return pos, gap_ranks


def save_snapshot(path: str | Path, source: Dendrogram | DendrogramSnapshot) -> None:
    """Write a snapshot file to exactly ``path``, atomically.

    ``source`` may be a :class:`Dendrogram` (the slabs are built here) or a
    prebuilt :class:`DendrogramSnapshot`.
    """
    snap = source if isinstance(source, DendrogramSnapshot) else build_snapshot(source)
    snap.validate()
    offsets, _ = _layout(snap.n, snap.m, snap.levels)
    with atomic_write(path) as fh:
        fh.write(pack_header(_MAGIC, snap.n, snap.m, snap.levels, snap.generation, size=_ALIGN))
        for name, offset in offsets.items():
            fh.write(bytes(offset - fh.tell()))
            fh.write(np.ascontiguousarray(getattr(snap, name), dtype=_SLAB_DTYPES[name]))


def load_snapshot(path: str | Path, mmap: bool = True) -> DendrogramSnapshot:
    """Load (and validate) a snapshot file written by :func:`save_snapshot`.

    With ``mmap=True`` (default) every slab is an aligned read-only
    ``np.memmap`` view of the file -- no copy, warm start.  With
    ``mmap=False`` plain in-memory arrays are read from the same offsets.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
        for magic, what in _OLD_MAGICS.items():
            if head.startswith(magic):
                raise FormatError(
                    f"{path}: {what}; this version reads {SNAPSHOT_SCHEMA} only "
                    f"-- save the dendrogram again"
                )
        fh.seek(0)
        n, m, levels, generation = read_header(
            fh, path, SNAPSHOT_SCHEMA, _MAGIC, ("n", "m", "levels", "generation"), _file_bytes
        )
        base = np.memmap(fh, dtype=np.uint8, mode="r")
    offsets, _ = _layout(n, m, levels)
    arrays = {}
    for name, shape in _shapes(n, m, levels).items():
        dtype, offset = _SLAB_DTYPES[name], offsets[name]
        view = base[offset : offset + dtype.itemsize * math.prod(shape)].view(dtype)
        arrays[name] = view.reshape(shape) if mmap else np.array(view.reshape(shape))
    snap = DendrogramSnapshot(n=n, generation=generation, **arrays)
    snap.validate()
    return snap
