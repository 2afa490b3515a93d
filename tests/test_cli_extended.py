"""Extended CLI commands: analyze, compare, bench selfcheck, CSV flows."""

from __future__ import annotations


from repro.cli import main as cli_main


class TestAnalyze:
    def test_low_par_verdict(self, capsys):
        assert cli_main(
            ["analyze", "--kind", "path", "--n", "400", "--scheme", "low-par"]
        ) == 0
        out = capsys.readouterr().out
        assert "chain-bound" in out

    def test_sorted_verdict(self, capsys):
        assert cli_main(
            ["analyze", "--kind", "path", "--n", "400", "--scheme", "sorted"]
        ) == 0
        out = capsys.readouterr().out
        assert "postprocess-friendly" in out

    def test_perm_verdict(self, capsys):
        assert cli_main(
            ["analyze", "--kind", "path", "--n", "400", "--scheme", "perm"]
        ) == 0
        out = capsys.readouterr().out
        assert "wide frontier" in out

    def test_analyze_from_file(self, tmp_path, capsys):
        tree_path = tmp_path / "t.npz"
        cli_main(["generate", "--kind", "knuth", "--n", "100", "--out", str(tree_path)])
        capsys.readouterr()
        assert cli_main(["analyze", "--input", str(tree_path)]) == 0
        out = capsys.readouterr().out
        assert "parallelism profile" in out


class TestCompare:
    def _make(self, tmp_path, name, algorithm, seed=1):
        path = tmp_path / f"{name}.npz"
        cli_main(
            [
                "compute",
                "--kind",
                "knuth",
                "--n",
                "80",
                "--seed",
                str(seed),
                "--algorithm",
                algorithm,
                "--out",
                str(path),
            ]
        )
        return path

    def test_identical(self, tmp_path, capsys):
        a = self._make(tmp_path, "a", "rctt")
        b = self._make(tmp_path, "b", "paruf")
        capsys.readouterr()
        assert cli_main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "identical parent arrays: True" in out
        assert "B_2" in out

    def test_different_inputs(self, tmp_path, capsys):
        a = self._make(tmp_path, "a", "rctt", seed=1)
        b = self._make(tmp_path, "b", "rctt", seed=2)
        capsys.readouterr()
        assert cli_main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "identical parent arrays: False" in out

    def test_size_mismatch_fails(self, tmp_path, capsys):
        a = self._make(tmp_path, "a", "rctt")
        path_b = tmp_path / "c.npz"
        cli_main(
            ["compute", "--kind", "path", "--n", "30", "--out", str(path_b)]
        )
        capsys.readouterr()
        assert cli_main(["compare", str(a), str(path_b)]) == 1


def test_bench_selfcheck_listed():
    from repro.cli import build_parser

    parser = build_parser()
    text = parser.format_help()
    # subcommand registered
    assert "compare" in text and "analyze" in text


class TestSnapshotServeQuery:
    def _snapshot(self, tmp_path, capsys, n=128):
        path = tmp_path / "snap.rsnap"
        assert cli_main(
            ["snapshot", "--kind", "random", "--n", str(n), "--seed", "3",
             "--algorithm", "sequf", "--out", str(path)]
        ) == 0
        capsys.readouterr()
        return path

    def test_snapshot_writes_loadable_archive(self, tmp_path, capsys):
        path = self._snapshot(tmp_path, capsys)
        from repro.dendrogram.snapshot import load_snapshot

        snap = load_snapshot(path)
        assert snap.n == 128 and snap.m == 127

    def test_snapshot_from_saved_tree(self, tmp_path, capsys):
        tree_path = tmp_path / "t.npz"
        cli_main(["generate", "--kind", "knuth", "--n", "60", "--out", str(tree_path)])
        out_path = tmp_path / "snap.rsnap"
        assert cli_main(
            ["snapshot", "--input", str(tree_path), "--out", str(out_path)]
        ) == 0
        assert "n=60" in capsys.readouterr().out

    def test_query_batch_file(self, tmp_path, capsys):
        path = self._snapshot(tmp_path, capsys)
        batch = tmp_path / "batch.txt"
        batch.write_text("height 0 5\ncut 0.5\nk 4\ncluster 0.5 0 1 2\n# note\n")
        assert cli_main(["query", str(path), "--batch", str(batch)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert len(lines[1].split()) == 128  # one label per vertex

    def test_query_selfcheck_passes(self, tmp_path, capsys):
        path = self._snapshot(tmp_path, capsys)
        assert cli_main(
            ["query", str(path), "--selfcheck", "--queries", "2000"]
        ) == 0
        assert "selfcheck OK" in capsys.readouterr().out

    def test_query_selfcheck_catches_corruption(self, tmp_path, capsys):
        """Two swapped pos entries still form a permutation, so the file
        passes validation, but the query path no longer matches the oracle."""
        import numpy as np

        from repro.dendrogram.snapshot import load_snapshot, save_snapshot

        path = self._snapshot(tmp_path, capsys, n=32)
        snap = load_snapshot(path, mmap=False)
        pos, root_gap = snap.pos, int(np.argmax(snap.table[0]))
        # A vertex across the root's gap from vertex 0 merges with it only at
        # the root: swapping the two moves each into the other's subtree.
        u = int(np.argmax(pos)) if pos[0] <= root_gap else int(np.argmin(pos))
        pos[0], pos[u] = pos[u], pos[0]
        save_snapshot(path, snap)
        assert cli_main(
            ["query", str(path), "--selfcheck", "--queries", "500"]
        ) == 1
        assert "selfcheck FAIL" in capsys.readouterr().err

    def test_info_names_an_older_snapshot_format(self, tmp_path, capsys):
        """A binary-lifting snapshot is reported as that format, not as an
        unreadable archive."""
        import struct

        path = tmp_path / "old.rsnap"
        path.write_bytes(b"RSNAP2\0\0" + struct.pack("<4q", 64, 63, 6, -1).ljust(56, b"\0"))
        assert cli_main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert "repro-dendro-snapshot/2" in err and err.count("\n") == 1

    def test_snapshot_out_path_is_used_as_given(self, tmp_path, capsys):
        """``--out x.snap`` writes ``x.snap`` (no suffix appended), and the
        query command reads it back."""
        path = tmp_path / "x.snap"
        assert cli_main(
            ["snapshot", "--kind", "random", "--n", "64", "--algorithm", "sequf",
             "--out", str(path)]
        ) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.snap"]
        assert cli_main(["query", str(path), "--selfcheck", "--queries", "200"]) == 0

    def test_serve_missing_snapshot_is_usage_error(self, tmp_path, capsys):
        assert cli_main(["serve", str(tmp_path / "missing.snap")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: ") and len(err.splitlines()) == 1

    def test_query_rejects_garbage_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.rsnap"
        bad.write_bytes(b"nope")
        assert cli_main(["query", str(bad), "--selfcheck"]) == 2
        assert "repro query" in capsys.readouterr().err

    def test_query_without_work_is_usage_error(self, tmp_path, capsys):
        path = self._snapshot(tmp_path, capsys)
        assert cli_main(["query", str(path)]) == 2

    def test_serve_reads_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        path = self._snapshot(tmp_path, capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO("height 0 5\nbogus\nk 2\n"))
        assert cli_main(["serve", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("error:")
