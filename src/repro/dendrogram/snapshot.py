"""Versioned, mmap-able on-disk dendrogram snapshots.

A snapshot is the serving-layer artifact of a computed dendrogram: the
flat int32/float64 slabs every query needs (tree edges/weights/ranks,
parent array, per-vertex leaf attachment) plus the precomputed
binary-lifting index (node depths and the ``up`` ancestor table).
Saving pays the ``O(m log h)`` index construction once; loading is a
zero-copy warm start.

File layout (``repro-dendro-snapshot/2``)
-----------------------------------------
A 64-byte header -- the 8-byte magic ``RSNAP2\\0\\0``, then little-endian
int64 ``n``, ``m``, ``levels`` and ``generation``, zero-padded -- followed
by the seven slabs in :data:`_SLAB_DTYPES` order, little-endian and
C-order, each starting on a 64-byte boundary.  The file ends exactly at
the last slab, so the header fixes the file size.

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
``repro-dendro-snapshot/1`` ``.npz`` archive is named as such), a short
header, header fields that disagree (``m != max(0, n - 1)``,
``levels < 1``), a file size other than the header requires, and
cross-field inconsistencies of the slabs (``up[0] != parents``,
out-of-range indices).  Missing files raise ``OSError`` as usual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dendrogram.lca import lifting_table
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
SNAPSHOT_SCHEMA = "repro-dendro-snapshot/2"

_MAGIC = b"RSNAP2\0\0"
#: What a ``repro-dendro-snapshot/1`` file (a zip archive) starts with.
_ZIP_MAGIC = b"PK\x03\x04"
#: Header bytes and slab alignment.
_ALIGN = 64

#: Slabs in file order and their dtypes.  Shapes follow from the header
#: (:func:`_shapes`) and are checked in :meth:`DendrogramSnapshot.validate`.
_SLAB_DTYPES: dict[str, np.dtype] = {
    "edges": np.dtype("<i4"),
    "weights": np.dtype("<f8"),
    "ranks": np.dtype("<i4"),
    "parents": np.dtype("<i4"),
    "leaf_parent": np.dtype("<i4"),
    "depth": np.dtype("<i4"),
    "up": np.dtype("<i4"),
}


def _shapes(n: int, m: int, levels: int) -> dict[str, tuple[int, ...]]:
    return {
        "edges": (m, 2),
        "weights": (m,),
        "ranks": (m,),
        "parents": (m,),
        "leaf_parent": (n,),
        "depth": (m,),
        "up": (levels, m),
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
    if n < 1 or m != max(0, n - 1) or levels < 1:
        raise ValueError("need n >= 1, m = max(0, n - 1) and levels >= 1")
    return _layout(n, m, levels)[1]


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
    leaf_parent: np.ndarray  # (n,) node each vertex hangs off (-1 iff m == 0)
    depth: np.ndarray  # (m,) node depths (root = 1)
    up: np.ndarray  # (levels, m) binary-lifting ancestor table
    #: Source generation stamp (see :attr:`repro.core.dynamic.DynamicSLD.
    #: generation`); ``-1`` means the snapshot is unstamped (static source)
    #: and is never considered stale.
    generation: int = -1

    @property
    def m(self) -> int:
        """Number of dendrogram nodes (= tree edges)."""
        return int(self.parents.shape[0])

    @property
    def levels(self) -> int:
        """Binary-lifting levels (covers the deepest node)."""
        return int(self.up.shape[0])

    @property
    def nbytes(self) -> int:
        """Total slab payload in bytes."""
        return sum(
            int(getattr(self, name).nbytes) for name in _SLAB_DTYPES
        )

    def validate(self) -> None:
        """Raise :class:`FormatError` on any structural inconsistency."""
        n, m = self.n, self.m
        if n < 1 or m != max(0, n - 1):
            raise FormatError(f"snapshot: n={n} is inconsistent with m={m} nodes")
        for name, dtype in _SLAB_DTYPES.items():
            arr = getattr(self, name)
            if arr.dtype != dtype:
                raise FormatError(
                    f"snapshot: member {name!r} has dtype {arr.dtype}, expected {dtype}"
                )
        for name, expected in _shapes(n, m, self.levels).items():
            got = tuple(getattr(self, name).shape)
            if got != expected:
                raise FormatError(
                    f"snapshot: member {name!r} has shape {got}, expected {expected}"
                )
        if self.levels < 1:
            raise FormatError("snapshot: up table must have at least one level")
        if m:
            if not np.array_equal(self.up[0], self.parents):
                raise FormatError("snapshot: up[0] does not match the parent array")
            for name in ("parents", "depth", "ranks"):
                arr = getattr(self, name)
                if int(arr.min()) < (1 if name == "depth" else 0) or int(
                    arr.max()
                ) >= (m + 1 if name == "depth" else m):
                    raise FormatError(f"snapshot: member {name!r} has out-of-range values")
            if int(self.leaf_parent.min()) < 0 or int(self.leaf_parent.max()) >= m:
                raise FormatError("snapshot: leaf_parent has out-of-range values")
        elif not np.all(self.leaf_parent == -1):
            raise FormatError("snapshot: leaf_parent of an empty dendrogram must be -1")

    def to_dendrogram(self) -> Dendrogram:
        """Reconstruct the (validated) in-memory :class:`Dendrogram`."""
        tree = WeightedTree(
            self.n,
            np.asarray(self.edges, dtype=np.int64),
            np.asarray(self.weights, dtype=np.float64),
        )
        return Dendrogram(tree, np.asarray(self.parents, dtype=np.int64))


def build_snapshot(dend: Dendrogram, generation: int = -1) -> DendrogramSnapshot:
    """Precompute the query slabs of ``dend`` (the save-time O(m log h) pass).

    Every pass is vectorized: leaf attachments by one min-rank scatter,
    node depths by pointer doubling, then the lifting table.  The leaf
    pass runs first and its temporaries are freed before the table is
    allocated, so peak memory is the table plus a few ``O(n)`` slabs.

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
    if m:
        # Leaf attachments: vertex v hangs off its min-rank incident edge,
        # i.e. the edge at rank min(ranks of v's edges).
        best = np.full(n, m, dtype=np.int32)
        np.minimum.at(best, edges[:, 0], ranks)
        np.minimum.at(best, edges[:, 1], ranks)
        by_rank = np.empty(m, dtype=np.int32)
        by_rank[ranks] = np.arange(m, dtype=np.int32)
        leaf_parent = by_rank[best]
        del best, by_rank
        # Depths by pointer doubling: d counts the hops to anc, and the
        # root's self-loop absorbs overshoot, so O(log h) rounds suffice.
        d = (parents != np.arange(m, dtype=np.int32)).astype(np.int32)
        anc = parents
        while True:  # noqa: RPR102 -- pointer-jumping, O(log h) hops
            anc2 = anc[anc]
            if np.array_equal(anc2, anc):
                break
            d += d[anc]
            anc = anc2
        del anc, anc2
        depth = d + 1
        del d
        up = lifting_table(parents, depth)
    else:
        depth = np.zeros(0, dtype=np.int32)
        up = np.zeros((1, 0), dtype=np.int32)
        leaf_parent = np.full(n, -1, dtype=np.int32)
    snap = DendrogramSnapshot(
        n=n,
        edges=edges,
        weights=np.asarray(tree.weights, dtype=np.float64),
        ranks=ranks,
        parents=parents,
        leaf_parent=leaf_parent,
        depth=depth,
        up=up,
        generation=int(generation),
    )
    snap.validate()
    return snap


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
        if fh.read(len(_ZIP_MAGIC)) == _ZIP_MAGIC:
            raise FormatError(
                f"{path}: a zip archive, as written by repro-dendro-snapshot/1; "
                f"this version reads {SNAPSHOT_SCHEMA} only -- save the dendrogram again"
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
