"""Persistence: save/load trees and dendrograms as ``.npz`` archives.

The formats are intentionally plain -- raw arrays plus a format tag -- so
downstream tooling in any language can read them with a NumPy-compatible
loader.

* tree archive:        ``kind="tree"``, ``n``, ``edges (m,2)``, ``weights (m,)``
* dendrogram archive:  ``kind="dendrogram"``, the tree fields, ``parents (m,)``

Archives, linkage CSVs, REDG1 edge files (:mod:`repro.io.edgefile`),
dendrogram snapshots (:mod:`repro.dendrogram.snapshot`), benchmark
baselines, bounds reports, reproduction reports and fuzz corpus entries
are written through :func:`atomic_write`: they appear whole or not at
all, at exactly the path given (no suffix is appended).  The two raw
binary formats also share a fixed header of a magic plus little-endian
int64 fields (:func:`pack_header` / :func:`read_header`) whose fields
determine the exact file size.

Error contract
--------------
Every loader in this module raises :class:`FormatError` for any input that
is readable but not in the expected format: garbage or truncated bytes
where an ``.npz`` archive is expected, a wrong/missing ``kind`` tag,
missing arrays, and every malformed CSV condition (unparseable cells,
short rows, negative ids, non-finite weights, self loops, duplicate
edges).  ``load_edges_csv`` raises :class:`FormatError` and nothing else.
The ``.npz`` loaders additionally let validation errors for *well-formed*
archives whose payload violates a structural invariant surface as the
matching :class:`~repro.errors.ReproError` subclass
(:class:`~repro.errors.InvalidTreeError`,
:class:`~repro.errors.InvalidDendrogramError`); missing files raise
``OSError`` as usual.  ``repro.fuzz`` enforces this contract with random
byte streams.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.dendrogram.structure import Dendrogram
from repro.errors import ReproError
from repro.trees.wtree import WeightedTree

__all__ = [
    "save_tree",
    "load_tree",
    "save_dendrogram",
    "load_dendrogram",
    "export_linkage_csv",
    "load_edges_csv",
    "atomic_write",
    "pack_header",
    "read_header",
]


class FormatError(ReproError):
    """The archive is not in the expected repro format."""


@contextmanager
def atomic_write(path: str | Path) -> Iterator[IO[bytes]]:
    """Write ``path`` whole or not at all.

    Yields a binary file opened on a fresh temp file in ``path``'s
    directory.  When the block exits cleanly the temp file is flushed,
    fsynced and moved onto ``path`` with ``os.replace``; readers see the
    previous file or the new one, never a partial write.  A reader that
    has the previous file open or mapped keeps seeing the previous bytes.
    On any exception the temp file is unlinked and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def pack_header(magic: bytes, *fields: int, size: int = 0) -> bytes:
    """``magic`` then each field as a little-endian int64, zero-padded to ``size`` bytes."""
    return (magic + struct.pack(f"<{len(fields)}q", *fields)).ljust(size, b"\x00")


def read_header(
    fh: IO[bytes],
    path: str | Path,
    kind: str,
    magic: bytes,
    names: Sequence[str],
    file_size: Callable[..., int],
) -> tuple[int, ...]:
    """Read a :func:`pack_header` header from the start of ``fh``.

    Returns the int64 fields named by ``names``.  ``file_size(*fields)``
    returns the exact byte count the file must have, or raises
    ``ValueError`` for fields it rejects.  A wrong magic, a short header,
    rejected fields or any other file size raise :class:`FormatError`
    naming ``path``.
    """
    need = len(magic) + 8 * len(names)
    head = fh.read(need)
    if not head.startswith(magic):
        raise FormatError(f"{path}: not a {kind} (bad magic)")
    if len(head) < need:
        raise FormatError(f"{path}: truncated {kind} header ({len(head)} of {need} bytes)")
    fields = struct.unpack_from(f"<{len(names)}q", head, len(magic))
    try:
        expected = file_size(*fields)
    except ValueError as exc:
        declared = ", ".join(f"{k}={v}" for k, v in zip(names, fields))
        raise FormatError(f"{path}: {kind} header declares {declared}: {exc}") from None
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise FormatError(f"{path}: file is {size} bytes, its header requires {expected}")
    return fields


def _save_archive(path: str | Path | IO[bytes], **arrays: np.ndarray) -> None:
    """``np.savez_compressed`` onto a file object, or atomically onto
    exactly ``path`` (never ``path + ".npz"``)."""
    if not isinstance(path, (str, Path)):
        np.savez_compressed(path, **arrays)
        return
    with atomic_write(path) as fh:
        np.savez_compressed(fh, **arrays)


def save_tree(path: str | Path | IO[bytes], tree: WeightedTree) -> None:
    """Write a weighted tree archive (``.npz`` format) to ``path``."""
    _save_archive(
        path,
        kind=np.array("tree"),
        n=np.array(tree.n, dtype=np.int64),
        edges=tree.edges,
        weights=tree.weights,
    )


def load_tree(path: str | Path | IO[bytes]) -> WeightedTree:
    """Read a weighted tree saved by :func:`save_tree`."""
    with _open_archive(path) as data:
        _expect_kind(data, "tree", path)
        try:
            return WeightedTree(int(data["n"]), data["edges"], data["weights"])
        except ReproError:
            raise
        except Exception as exc:
            raise FormatError(f"{path}: malformed tree archive ({exc})") from exc


def save_dendrogram(path: str | Path | IO[bytes], dend: Dendrogram) -> None:
    """Write a dendrogram archive (tree + parents, ``.npz`` format) to ``path``."""
    tree = dend.tree
    _save_archive(
        path,
        kind=np.array("dendrogram"),
        n=np.array(tree.n, dtype=np.int64),
        edges=tree.edges,
        weights=tree.weights,
        parents=dend.parents,
    )


def load_dendrogram(path: str | Path | IO[bytes]) -> Dendrogram:
    """Read a dendrogram saved by :func:`save_dendrogram` (validated)."""
    with _open_archive(path) as data:
        _expect_kind(data, "dendrogram", path)
        try:
            tree = WeightedTree(int(data["n"]), data["edges"], data["weights"])
            parents = data["parents"]
        except ReproError:
            raise
        except Exception as exc:
            raise FormatError(f"{path}: malformed dendrogram archive ({exc})") from exc
        return Dendrogram(tree, parents, validate=True)


def export_linkage_csv(path: str | Path, dend: Dendrogram) -> None:
    """Write the SciPy-style linkage matrix as CSV with a header row (atomically)."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["cluster_a", "cluster_b", "distance", "size"])
    for row in dend.to_linkage():
        writer.writerow([int(row[0]), int(row[1]), repr(float(row[2])), int(row[3])])
    with atomic_write(path) as fh:
        fh.write(text.getvalue().encode())


def load_edges_csv(
    path: str | Path, has_header: bool | None = None
) -> tuple[int, np.ndarray, np.ndarray]:
    """Read a weighted edge list from CSV: rows of ``u,v[,weight]``.

    Returns ``(n, edges, weights)`` with ``n = max vertex id + 1`` and unit
    weights where the column is absent.  Blank rows are skipped.  The first
    non-blank row is the header candidate: ``has_header=True`` skips it
    unconditionally, ``has_header=False`` never skips, and ``has_header=None``
    (the default) skips it exactly when its first cell does not parse as an
    integer.  Feed the result to
    :func:`repro.trees.mst.minimum_spanning_tree` or
    :func:`repro.cluster.graph_linkage.graph_single_linkage`.

    Raises :class:`FormatError` -- and no other exception -- on every
    malformed input: short rows, cells that do not parse (``"x"`` or
    ``"1.0"`` in an id column), negative vertex ids, non-finite weights,
    self loops (``u == v``), and duplicate edges (same endpoint pair in
    either orientation).  Messages name the file and 1-based row number.
    """
    rows: list[tuple[int, int, float]] = []
    seen: dict[tuple[int, int], int] = {}
    at_first_data_row = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if at_first_data_row:
                at_first_data_row = False
                if has_header:
                    continue
                if has_header is None and not _parses_as_int(row[0]):
                    continue  # auto-detected header row
            if len(row) < 2:
                raise FormatError(f"{path}: row {i + 1} has fewer than two columns")
            u = _parse_vertex(row[0], path, i)
            v = _parse_vertex(row[1], path, i)
            if u == v:
                raise FormatError(f"{path}: row {i + 1} is a self loop at vertex {u}")
            w = 1.0
            if len(row) >= 3 and row[2].strip():
                try:
                    w = float(row[2])
                except ValueError:
                    raise FormatError(
                        f"{path}: row {i + 1}: cannot parse {row[2]!r} as a float weight"
                    ) from None
                if not math.isfinite(w):
                    raise FormatError(
                        f"{path}: row {i + 1}: weight {row[2]!r} is not finite"
                    )
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise FormatError(
                    f"{path}: row {i + 1} is a duplicate of the edge "
                    f"({key[0]}, {key[1]}) from row {seen[key] + 1}"
                )
            seen[key] = i
            rows.append((u, v, w))
    if not rows:
        raise FormatError(f"{path}: no edges found")
    edges = np.array([(u, v) for u, v, _ in rows], dtype=np.int64)
    weights = np.array([w for _, _, w in rows], dtype=np.float64)
    n = int(edges.max()) + 1
    return n, edges, weights


def _parses_as_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _parse_vertex(cell: str, path: str | Path, i: int) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise FormatError(
            f"{path}: row {i + 1}: cannot parse {cell!r} as an integer vertex id"
        ) from None
    if value < 0:
        raise FormatError(f"{path}: row {i + 1} has a negative vertex id: {value}")
    return value


def _open_archive(path: str | Path | IO[bytes]) -> Any:
    """``np.load`` with non-archive failures wrapped into :class:`FormatError`.

    Missing files keep raising ``OSError``; everything else a byte stream
    can do wrong (not a zip, truncated members, bad CRCs, pickled arrays)
    becomes a :class:`FormatError` naming the path.
    """
    try:
        return np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise FormatError(
            f"{path}: not a readable .npz archive ({type(exc).__name__}: {exc})"
        ) from exc


def _expect_kind(data: Any, kind: str, path: str | Path | IO[bytes]) -> None:
    try:
        found = str(data["kind"]) if "kind" in data else "<missing>"
    except Exception as exc:
        raise FormatError(f"{path}: unreadable archive index ({exc})") from exc
    if found != kind:
        raise FormatError(f"{path}: expected a {kind!r} archive, found kind={found!r}")
