"""Persistence (.npz archives, CSV export) and the command-line interface."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from conftest import file_size_limit, make_tree
from repro.cli import main as cli_main
from repro.core.api import single_linkage_dendrogram
from repro.errors import InvalidDendrogramError
from repro.io import (
    FormatError,
    export_linkage_csv,
    load_dendrogram,
    load_tree,
    save_dendrogram,
    save_tree,
)
from repro.trees.weights import apply_scheme


@pytest.fixture
def tree():
    return make_tree("knuth", 40, seed=1).with_weights(apply_scheme("perm", 39, seed=2))


class TestIO:
    def test_tree_roundtrip(self, tmp_path, tree):
        path = tmp_path / "t.npz"
        save_tree(path, tree)
        loaded = load_tree(path)
        assert loaded.n == tree.n
        np.testing.assert_array_equal(loaded.edges, tree.edges)
        np.testing.assert_array_equal(loaded.weights, tree.weights)

    def test_dendrogram_roundtrip(self, tmp_path, tree):
        path = tmp_path / "d.npz"
        dend = single_linkage_dendrogram(tree, algorithm="rctt")
        save_dendrogram(path, dend)
        loaded = load_dendrogram(path)
        np.testing.assert_array_equal(loaded.parents, dend.parents)
        assert loaded.height == dend.height

    def test_kind_mismatch(self, tmp_path, tree):
        path = tmp_path / "t.npz"
        save_tree(path, tree)
        with pytest.raises(FormatError, match="dendrogram"):
            load_dendrogram(path)
        dpath = tmp_path / "d.npz"
        save_dendrogram(dpath, single_linkage_dendrogram(tree))
        with pytest.raises(FormatError, match="tree"):
            load_tree(dpath)

    def test_load_validates_dendrogram(self, tmp_path, tree):
        path = tmp_path / "d.npz"
        dend = single_linkage_dendrogram(tree)
        corrupted = dend.parents.copy()
        corrupted[:] = 0  # multiple roots / rank violations
        np.savez_compressed(
            path,
            kind=np.array("dendrogram"),
            n=np.array(tree.n),
            edges=tree.edges,
            weights=tree.weights,
            parents=corrupted,
        )
        with pytest.raises(InvalidDendrogramError):
            load_dendrogram(path)

    def test_linkage_csv(self, tmp_path, tree):
        path = tmp_path / "z.csv"
        dend = single_linkage_dendrogram(tree)
        export_linkage_csv(path, dend)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cluster_a", "cluster_b", "distance", "size"]
        assert len(rows) == tree.m + 1
        Z = dend.to_linkage()
        assert float(rows[1][2]) == pytest.approx(Z[0, 2])
        assert int(rows[-1][3]) == tree.n


class TestArchiveWrites:
    """Archive paths are written whole, at exactly the path given."""

    def test_exact_path_no_suffix(self, tmp_path, tree):
        save_tree(tmp_path / "t.tree", tree)
        save_dendrogram(tmp_path / "d.dend", single_linkage_dendrogram(tree))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.dend", "t.tree"]
        assert load_tree(tmp_path / "t.tree").n == tree.n
        assert load_dendrogram(tmp_path / "d.dend").m == tree.m

    def test_failed_save_keeps_previous_archive(self, tmp_path, tree):
        path = tmp_path / "d.npz"
        save_dendrogram(path, single_linkage_dendrogram(tree))
        before = path.read_bytes()
        bigger = make_tree("random", 4000, seed=3)
        with file_size_limit(len(before)), pytest.raises(OSError):
            save_dendrogram(path, single_linkage_dendrogram(bigger, algorithm="sequf"))
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file
        assert path.read_bytes() == before

    def test_failed_linkage_export_keeps_previous_csv(self, tmp_path, tree):
        path = tmp_path / "z.csv"
        export_linkage_csv(path, single_linkage_dendrogram(tree))
        before = path.read_bytes()
        bigger = make_tree("random", 400, seed=3)
        with file_size_limit(len(before)), pytest.raises(OSError):
            export_linkage_csv(path, single_linkage_dendrogram(bigger))
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file
        assert path.read_bytes() == before


class TestCLI:
    def test_generate_then_compute_any_suffix(self, tmp_path, capsys):
        tree_path = tmp_path / "x.tree"
        assert cli_main(["generate", "--kind", "path", "--n", "12", "--out", str(tree_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["x.tree"]
        assert cli_main(["compute", "--input", str(tree_path), "--algorithm", "sequf"]) == 0
        assert "nodes:      11" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--input", "missing.npz"],
            ["analyze", "--input", "missing.npz"],
            ["info", "missing.npz"],
            ["compute", "--kind", "path", "--n", "5", "--algorithm", "sequf-fast"],
        ],
        ids=["compute-missing", "analyze-missing", "info-missing", "compute-unknown-algorithm"],
    )
    def test_errors_exit_two_with_one_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: ")
        assert err.count("\n") == 1

    def test_info_describes_edge_file(self, tmp_path, capsys):
        from repro.io.edgefile import write_edge_file

        path = tmp_path / "g.redg"
        edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
        write_edge_file(path, 4, edges, np.array([1.0, 2.0, 3.0]))
        assert cli_main(["info", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}: REDG1 edge file n=4 m=3\n"

    @pytest.mark.parametrize(
        "payload", [b"not an archive\n", b"REDG1\x00\x00\x00\x04"], ids=["junk", "short-redg1"]
    )
    def test_info_rejects_unknown_file_with_one_line(self, payload, tmp_path, capsys):
        path = tmp_path / "mystery.bin"
        path.write_bytes(payload)
        assert cli_main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro info: {path}: ")
        assert err.count("\n") == 1

    def test_generate_and_compute(self, tmp_path, capsys):
        tree_path = tmp_path / "tree.npz"
        assert cli_main(["generate", "--kind", "star", "--n", "50", "--out", str(tree_path)]) == 0
        assert tree_path.exists()
        capsys.readouterr()
        assert cli_main(["compute", "--input", str(tree_path), "--algorithm", "sequf"]) == 0
        out = capsys.readouterr().out
        assert "height h" in out
        assert "nodes:      49" in out

    def test_compute_inline_with_render(self, capsys):
        assert cli_main(["compute", "--kind", "path", "--n", "6", "--render"]) == 0
        out = capsys.readouterr().out
        assert "vertex 0" in out

    def test_compute_saves_and_exports(self, tmp_path, capsys):
        d = tmp_path / "d.npz"
        z = tmp_path / "z.csv"
        assert (
            cli_main(
                [
                    "compute",
                    "--kind",
                    "knuth",
                    "--n",
                    "80",
                    "--validate",
                    "--out",
                    str(d),
                    "--linkage-csv",
                    str(z),
                ]
            )
            == 0
        )
        assert d.exists() and z.exists()
        loaded = load_dendrogram(d)
        assert loaded.m == 79

    def test_cluster_blobs(self, capsys):
        assert cli_main(["cluster", "--dataset", "blobs", "--n", "60", "--clusters", "3"]) == 0
        out = capsys.readouterr().out
        assert "pairwise agreement" in out

    def test_cluster_rings_knn(self, capsys):
        assert (
            cli_main(
                ["cluster", "--dataset", "rings", "--n", "120", "--clusters", "2", "--knn", "6"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "agreement with ground truth: 1.000" in out

    def test_info(self, tmp_path, capsys):
        tree_path = tmp_path / "tree.npz"
        cli_main(["generate", "--kind", "path", "--n", "10", "--out", str(tree_path)])
        capsys.readouterr()
        assert cli_main(["info", str(tree_path)]) == 0
        out = capsys.readouterr().out
        assert "kind=tree" in out
        assert "edges: shape=(9, 2)" in out

    def test_bench_dispatch(self, capsys, monkeypatch):
        import repro.bench.lowerbound as lb

        monkeypatch.setattr(lb, "main", lambda argv: print("LB-MAIN-CALLED"))
        assert cli_main(["bench", "lowerbound"]) == 0
        assert "LB-MAIN-CALLED" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
