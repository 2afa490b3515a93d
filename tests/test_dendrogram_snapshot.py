"""Snapshot format: round trip, zero-copy mmap loading, FormatError cases,
crash consistency, and the leaf-order slabs against the object path."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from conftest import file_size_limit, make_tree
from repro.core.api import single_linkage_dendrogram
from repro.core.cartesian import cartesian_tree_parents
from repro.dendrogram.lca import DendrogramIndex
from repro.dendrogram.query import QueryEngine
from repro.dendrogram.snapshot import (
    SNAPSHOT_SCHEMA,
    DendrogramSnapshot,
    build_snapshot,
    load_snapshot,
    save_snapshot,
)
from repro.dendrogram.validate import check_same_dendrogram
from repro.fuzz.generators import TOPOLOGY_FAMILIES, _make_topology
from repro.io import FormatError

SLABS = ("edges", "weights", "ranks", "parents", "pos", "by_rank", "table")


def _dend(kind: str = "random", n: int = 64, seed: int = 0):
    tree = make_tree(kind, n, seed=seed)
    return single_linkage_dendrogram(tree, algorithm="sequf")


def _offsets(snap) -> tuple[dict[str, int], int]:
    """Slab offsets and file size, computed from the format description:
    a 64-byte header, then each slab in order on the next 64-byte boundary."""
    offsets, end = {}, 64
    for name in SLABS:
        offsets[name] = (end + 63) // 64 * 64
        end = offsets[name] + getattr(snap, name).nbytes
    return offsets, end


def _patch(path, offset: int, data: bytes) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(data)


class TestRoundTrip:
    @pytest.mark.parametrize("family", TOPOLOGY_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 33])
    def test_lossless_across_topologies(self, tmp_path, family, n):
        """Every slab survives save -> load bit-identically, in both modes."""
        tree = _make_topology(family, n, np.random.default_rng(7))
        dend = single_linkage_dendrogram(tree, algorithm="sequf")
        built = build_snapshot(dend)
        path = tmp_path / "snap.rsnap"
        save_snapshot(path, dend)
        for mmap in (True, False):
            loaded = load_snapshot(path, mmap=mmap)
            assert loaded.n == built.n and loaded.generation == built.generation
            for name in SLABS:
                got, want = getattr(loaded, name), getattr(built, name)
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)

    def test_mmap_load_returns_memmaps(self, tmp_path):
        path = tmp_path / "snap.rsnap"
        save_snapshot(path, _dend())
        loaded = load_snapshot(path)
        for name in SLABS:
            slab = getattr(loaded, name)
            assert isinstance(slab, np.memmap), name
            assert slab.flags.aligned, name
            assert not slab.flags.writeable, name
        materialized = load_snapshot(path, mmap=False)
        for name in SLABS:
            assert not isinstance(getattr(materialized, name), np.memmap), name

    def test_layout_matches_header(self, tmp_path):
        """Header fields, 64-byte slab offsets, little-endian C-order bytes,
        and a file that ends exactly at the last slab."""
        snap = build_snapshot(_dend(n=50), generation=5)
        path = tmp_path / "snap.rsnap"
        save_snapshot(path, snap)
        raw = path.read_bytes()
        assert raw[:8] == b"RSNAP3\0\0"
        assert struct.unpack_from("<4q", raw, 8) == (50, 49, snap.levels, 5)
        assert raw[40:64] == bytes(24)
        offsets, end = _offsets(snap)
        assert len(raw) == end
        for name, offset in offsets.items():
            slab = getattr(snap, name)
            want = np.ascontiguousarray(slab, dtype=slab.dtype.newbyteorder("<")).tobytes()
            assert raw[offset : offset + len(want)] == want, name

    def test_save_writes_exactly_the_given_path(self, tmp_path):
        path = tmp_path / "snap.snap"
        save_snapshot(path, _dend())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.snap"]

    def test_to_dendrogram_reconstructs(self, tmp_path):
        dend = _dend(n=40, seed=3)
        path = tmp_path / "snap.rsnap"
        save_snapshot(path, dend)
        back = load_snapshot(path).to_dendrogram()
        assert check_same_dendrogram(back.parents, dend.parents)
        np.testing.assert_array_equal(back.tree.edges, dend.tree.edges)
        np.testing.assert_array_equal(back.tree.weights, dend.tree.weights)

    def test_save_accepts_prebuilt_snapshot(self, tmp_path):
        snap = build_snapshot(_dend())
        path = tmp_path / "snap.rsnap"
        save_snapshot(path, snap)
        loaded = load_snapshot(path)
        np.testing.assert_array_equal(loaded.table, snap.table)

    def test_singleton_tree(self, tmp_path):
        path = tmp_path / "snap.rsnap"
        save_snapshot(path, _dend(kind="path", n=1))
        for mmap in (True, False):
            loaded = load_snapshot(path, mmap=mmap)
            assert loaded.n == 1 and loaded.m == 0
            assert loaded.pos.tolist() == [0] and loaded.table.shape == (1, 0)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_snapshot(tmp_path / "nope.rsnap")


class TestFormatErrors:
    @pytest.fixture()
    def snap_path(self, tmp_path):
        path = tmp_path / "snap.rsnap"
        save_snapshot(path, _dend())
        return path

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "junk.rsnap"
        path.write_bytes(b"this is not a snapshot file at all, nor close to one")
        for mmap in (True, False):
            with pytest.raises(FormatError, match="bad magic"):
                load_snapshot(path, mmap=mmap)

    def test_v1_archive_rejected(self, tmp_path):
        """A zip archive as the previous format wrote it is named as such."""
        old = tmp_path / "old.npz"
        snap = build_snapshot(_dend())
        np.savez(
            old,
            schema=np.array("repro-dendro-snapshot/1"),
            n=np.array(snap.n, dtype=np.int64),
            **{name: getattr(snap, name) for name in SLABS},
        )
        for mmap in (True, False):
            with pytest.raises(FormatError, match="repro-dendro-snapshot/1"):
                load_snapshot(old, mmap=mmap)

    def test_v2_file_rejected(self, tmp_path):
        """A file of the binary-lifting format is named as such, not mapped."""
        old = tmp_path / "old.rsnap"
        old.write_bytes(b"RSNAP2\0\0" + struct.pack("<4q", 64, 63, 6, -1).ljust(56, b"\0"))
        for mmap in (True, False):
            with pytest.raises(FormatError, match="repro-dendro-snapshot/2"):
                load_snapshot(old, mmap=mmap)

    def test_wrong_schema(self, snap_path):
        """Any other magic (here: a future format version) is rejected."""
        _patch(snap_path, 0, b"RSNAP9\0\0")
        with pytest.raises(FormatError, match="bad magic"):
            load_snapshot(snap_path)

    def test_shape_mismatch(self, tmp_path, snap_path):
        """The header fixes every slab shape: inconsistent n/m/levels fail
        before anything is mapped."""
        n, m, levels, _ = struct.unpack_from("<4q", snap_path.read_bytes(), 8)
        cases = [
            ({8: n + 1}, "header declares"),  # n disagrees with m
            ({16: m - 1}, "header declares"),  # m disagrees with n
            ({24: 0}, "header declares"),  # no table row
            ({24: levels + 1}, "header declares"),  # more rows than m gaps need
            ({8: n - 1, 16: m - 1}, "bytes"),  # consistent, but not the file's size
            ({8: 2**62, 16: 2**62 - 1, 24: 62}, "bytes"),  # a size past int64 must not wrap
        ]
        for i, (fields, match) in enumerate(cases):
            bad = tmp_path / f"bad{i}.rsnap"
            bad.write_bytes(snap_path.read_bytes())
            for offset, value in fields.items():
                _patch(bad, offset, struct.pack("<q", value))
            with pytest.raises(FormatError, match=match):
                load_snapshot(bad)

    def test_dtype_mismatch(self, tmp_path):
        """The file format fixes dtypes; a hand-built snapshot with a wrong
        one is refused at save time."""
        snap = build_snapshot(_dend())
        snap.parents = snap.parents.astype(np.int64)
        with pytest.raises(FormatError, match="dtype"):
            save_snapshot(tmp_path / "bad.rsnap", snap)
        assert list(tmp_path.iterdir()) == []

    def test_cross_field_inconsistency(self, tmp_path, snap_path):
        """pos and table[0] must be permutations and by_rank must invert
        ranks; each corruption below keeps every entry in range."""
        snap = load_snapshot(snap_path, mmap=False)
        offsets = _offsets(snap)[0]
        cases = [
            ("pos", int(snap.pos[1]), "pos is not a permutation"),
            ("table", int(snap.table[0, 1]), "table\\[0\\] is not a permutation"),
            ("by_rank", int(snap.by_rank[1]), "by_rank does not invert"),
        ]
        for name, value, match in cases:
            bad = tmp_path / f"bad-{name}.rsnap"
            bad.write_bytes(snap_path.read_bytes())
            _patch(bad, offsets[name], struct.pack("<i", value))  # entry 0 := entry 1
            for mmap in (True, False):
                with pytest.raises(FormatError, match=match):
                    load_snapshot(bad, mmap=mmap)

    def test_out_of_range_pos(self, snap_path):
        snap = load_snapshot(snap_path, mmap=False)
        offset = _offsets(snap)[0]["pos"]
        _patch(snap_path, offset, struct.pack("<i", snap.n))  # one past the last position
        for mmap in (True, False):
            with pytest.raises(FormatError, match="pos"):
                load_snapshot(snap_path, mmap=mmap)

    def test_truncated_member_payload(self, snap_path):
        """A file cut inside a slab payload is reported, not mapped."""
        snap = load_snapshot(snap_path, mmap=False)
        cut = _offsets(snap)[0]["weights"] + 12
        snap_path.write_bytes(snap_path.read_bytes()[:cut])
        for mmap in (True, False):
            with pytest.raises(FormatError, match="bytes"):
                load_snapshot(snap_path, mmap=mmap)

    def test_validate_rejects_bad_n(self):
        snap = build_snapshot(_dend(n=8))
        snap = DendrogramSnapshot(
            n=9,  # claims one more vertex than the slabs carry
            edges=snap.edges,
            weights=snap.weights,
            ranks=snap.ranks,
            parents=snap.parents,
            pos=snap.pos,
            by_rank=snap.by_rank,
            table=snap.table,
        )
        with pytest.raises(FormatError, match="inconsistent"):
            snap.validate()

    def test_schema_constant_is_versioned(self):
        assert SNAPSHOT_SCHEMA.endswith("/3")


class TestCrashConsistency:
    @pytest.fixture()
    def previous(self, tmp_path):
        """A valid snapshot already at the path, and its bytes."""
        path = tmp_path / "live.rsnap"
        save_snapshot(path, _dend(n=64, seed=1))
        return path, path.read_bytes()

    @pytest.mark.parametrize("where", ["nothing", "header", "table", "one-short"])
    def test_failed_save_keeps_previous(self, previous, where):
        """The write dies once k bytes are on disk: the previous snapshot
        stays byte-identical and loadable, and no temp file is left."""
        path, before = previous
        new = build_snapshot(_dend(n=80, seed=2))
        offsets, size = _offsets(new)
        k = {"nothing": 0, "header": 20, "table": offsets["table"] + 7, "one-short": size - 1}[where]
        with file_size_limit(k), pytest.raises(OSError):
            save_snapshot(path, new)
        assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temp file
        assert path.read_bytes() == before
        assert load_snapshot(path).n == 64

    def test_mapped_engine_survives_resave(self, tmp_path):
        """Saving over a path never changes what an engine already serves
        from it; a fresh load serves the new dendrogram."""
        tree = make_tree("random", 4000, seed=0)
        old, new = (
            single_linkage_dendrogram(
                tree.with_weights(np.random.default_rng(s).random(tree.m)), algorithm="sequf"
            )
            for s in (1, 2)
        )
        path = tmp_path / "live.rsnap"
        save_snapshot(path, old)
        engine = QueryEngine(load_snapshot(path))
        pairs = np.random.default_rng(3).integers(0, tree.n, size=(4000, 2))
        old_heights = DendrogramIndex(old).merge_heights(pairs)
        new_heights = DendrogramIndex(new).merge_heights(pairs)
        assert not np.array_equal(old_heights, new_heights)
        size = path.stat().st_size
        save_snapshot(path, new)
        assert path.stat().st_size == size  # same layout: an in-place rewrite would not fault
        np.testing.assert_array_equal(engine.merge_heights(pairs), old_heights)
        np.testing.assert_array_equal(
            QueryEngine(load_snapshot(path)).merge_heights(pairs), new_heights
        )

    @pytest.mark.parametrize("mmap", [True, False])
    def test_truncated_or_extended_file_rejected(self, previous, mmap):
        path, raw = previous
        snap = load_snapshot(path, mmap=False)
        offsets, size = _offsets(snap)
        assert size == len(raw)
        cuts = {0, 7, 8, 63, 64, size - 1}
        for offset in offsets.values():
            cuts |= {offset - 1, offset + 1}
        bad = path.with_name("bad.rsnap")
        for data in [raw[:cut] for cut in sorted(cuts)] + [raw + b"\0"]:
            bad.write_bytes(data)
            with pytest.raises(FormatError):
                load_snapshot(bad, mmap=mmap)


class TestBuildFromSlabs:
    """:func:`build_snapshot` derives the leaf order with vectorized passes
    and one traversal; each slab is checked against a computation that
    shares none of it: the tree slabs against the dendrogram object, every
    gap against :class:`DendrogramIndex`, the gap sequence against the §3.1
    Cartesian-tree identity, and the table against a brute sliding max."""

    @pytest.mark.parametrize("kind", ["path", "star", "random", "caterpillar", "broom", "binary"])
    @pytest.mark.parametrize("n", [2, 3, 33, 97])
    def test_matches_object_path(self, kind, n):
        rng = np.random.default_rng(n * 31 + len(kind))
        tree = make_tree(kind, n).with_weights(
            rng.integers(0, max(1, n // 4), size=n - 1).astype(np.float64)
        )
        dend = single_linkage_dendrogram(tree, algorithm="sequf")
        got = build_snapshot(dend)
        m = n - 1
        expected = {
            "edges": tree.edges.astype(np.int32),
            "weights": np.asarray(tree.weights, dtype=np.float64),
            "ranks": tree.ranks.astype(np.int32),
            "parents": dend.parents.astype(np.int32),
            "by_rank": np.argsort(tree.ranks).astype(np.int32),
        }
        for slab, want in expected.items():
            a = getattr(got, slab)
            assert a.dtype == want.dtype, slab
            assert np.array_equal(a, want), (kind, n, slab)
        assert sorted(got.pos.tolist()) == list(range(n))
        leaves = np.argsort(got.pos)  # the vertex at each leaf position
        gap_node = got.by_rank[got.table[0]]
        # Gap i is where the leaves at positions i and i + 1 merge ...
        index = DendrogramIndex(dend)
        for i in range(m):
            assert gap_node[i] == index.merge_node(int(leaves[i]), int(leaves[i + 1])), (kind, n, i)
        # ... every node is exactly one gap, and the dendrogram is the
        # Cartesian tree of the gap ranks (the paper's §3.1 path case).
        assert sorted(gap_node.tolist()) == list(range(m))
        cartesian = cartesian_tree_parents(tree.ranks[gap_node])
        np.testing.assert_array_equal(dend.parents[gap_node], gap_node[cartesian])
        # Row k is the max over the 2**k gaps from i on, cut off at the last gap.
        assert got.levels == int(np.floor(np.log2(m))) + 1
        for k in range(got.levels):
            brute = [int(got.table[0, i : i + 2**k].max()) for i in range(m)]
            assert got.table[k].tolist() == brute, (kind, n, k)
        assert got.n == tree.n and got.generation == -1

    def test_generation_stamp_forwarded(self):
        tree = make_tree("path", 5).with_weights(np.arange(4, dtype=np.float64))
        snap = build_snapshot(single_linkage_dendrogram(tree, algorithm="sequf"), generation=7)
        assert snap.generation == 7

    def test_single_edge(self):
        tree = make_tree("path", 2)
        snap = build_snapshot(single_linkage_dendrogram(tree, algorithm="sequf"))
        assert snap.m == 1 and sorted(snap.pos.tolist()) == [0, 1]
        assert snap.by_rank.tolist() == [0] and snap.table.tolist() == [[0]]
