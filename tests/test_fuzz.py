"""The repro.fuzz subsystem: determinism, detection power, shrinking, CLI."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.paruf_threaded import paruf_threaded
from repro.errors import ReproError
from repro.fuzz import (
    DOMAINS,
    FUZZ_ALGORITHMS,
    CsvCase,
    DynamicCase,
    GraphCase,
    NpzCase,
    TreeCase,
    case_rng,
    differential_check,
    draw_case,
    relations_check,
    run_fuzz,
    run_selftest,
    select_domains,
)
from repro.fuzz.corpus import entry_bytes, entry_filename, load_entry, save_finding
from repro.fuzz.domains import CSV, GRAPH, NPZ, TREE
from repro.fuzz.oracles import Finding, reference_parse_csv
from repro.fuzz.selftest import (
    MUTANTS,
    mutant_dropped_tiebreak,
    mutant_label_tiebreak,
)


def _gen(seed: int, index: int, domains=None):
    """Case ``index`` of a run with ``seed`` over the ``domains`` wheel."""
    return draw_case(select_domains(domains), case_rng(seed, index))[1]


def _tree_mutant(fn, check: str = "differential"):
    """The tree domain judged on ``{"mut": fn}`` by one tree check only."""
    if check == "differential":
        return replace(TREE, check=lambda case, rng: differential_check(case, {"mut": fn}))
    return replace(TREE, check=lambda case, rng: relations_check(case, {"mut": fn}, rng))


def _case_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, TreeCase):
        return (
            a.n == b.n
            and np.array_equal(a.edges, b.edges)
            and np.array_equal(a.weights, b.weights)
            and a.label == b.label
        )
    if isinstance(a, DynamicCase):
        return (
            a.n == b.n
            and np.array_equal(a.edges, b.edges)
            and np.array_equal(a.weights, b.weights)
            and a.batches == b.batches
            and a.label == b.label
        )
    if isinstance(a, GraphCase):
        return (
            a.n == b.n
            and np.array_equal(a.edges, b.edges)
            and np.array_equal(a.weights, b.weights)
            and a.chunk == b.chunk
            and a.label == b.label
        )
    if isinstance(a, CsvCase):
        return a.text == b.text and a.has_header == b.has_header
    return a.data == b.data


class TestDeterminism:
    def test_same_seed_same_cases(self):
        for index in range(40):
            a = _gen(7, index)
            b = _gen(7, index)
            assert _case_equal(a, b), index

    def test_seed_changes_the_stream(self):
        diff = sum(
            not _case_equal(_gen(1, i), _gen(2, i))
            for i in range(20)
        )
        assert diff > 10

    def test_negative_seed_accepted(self):
        _gen(-3, 0)

    def test_corpus_entries_byte_identical_across_runs(self, tmp_path):
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            report = run_fuzz(
                seed=0,
                max_cases=150,
                corpus_dir=d,
                domains=(_tree_mutant(mutant_dropped_tiebreak),),
                stop_on_finding=True,
            )
            assert report.findings
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_budget_never_changes_case_content(self):
        """A wall-clock budget may truncate the stream, never reorder it."""
        a = run_fuzz(seed=3, max_cases=25)
        b = run_fuzz(seed=3, max_cases=25, budget_s=3600.0)
        assert a.cases_run == 25
        assert b.cases_run == 25
        assert a.ok and b.ok


class TestDetectionPower:
    def test_real_algorithms_are_clean(self):
        report = run_fuzz(seed=11, max_cases=60)
        assert report.ok, [f.describe() for f in report.findings]

    def test_differential_catches_planted_mutant(self):
        report = run_fuzz(
            seed=0,
            max_cases=150,
            domains=(_tree_mutant(mutant_dropped_tiebreak),),
            stop_on_finding=True,
        )
        assert any(f.check == "differential:mut" for f in report.findings)

    def test_relations_alone_catch_label_tiebreak(self):
        report = run_fuzz(
            seed=0,
            max_cases=150,
            domains=(_tree_mutant(mutant_label_tiebreak, check="relations"),),
            stop_on_finding=True,
        )
        assert report.findings
        assert all(f.check.startswith("relation:") for f in report.findings)

    def test_selftest_catches_every_mutant(self):
        report = run_selftest(seed=0, shrink=False)
        assert report.ok, report.missed
        assert set(report.caught) == {m.name for m in MUTANTS}
        # The io mutants must be caught by io checks, the dynamic mutants
        # by the dynamic oracle, the algorithm mutants by tree checks --
        # not by accident of some other layer.
        for name, check in report.caught.items():
            if name.startswith("csv-"):
                assert check.startswith("io:csv:")
            elif name.startswith("dynamic-"):
                assert check.startswith("dynamic:")
            elif name.startswith("streaming-"):
                assert check.startswith("mst:")
            else:
                assert check.startswith(("differential:", "relation:"))

    def test_selftest_reports_a_missing_catch(self, monkeypatch):
        """A mutant that is never caught must fail the selftest -- guard
        against the selftest degrading into a tautology."""
        from repro.core.sequf import sequf
        from repro.fuzz import selftest as st

        healthy = st.Mutant(
            name="healthy",  # a correct algorithm: nothing to catch
            domain=_tree_mutant(sequf),
            max_cases=10,
        )
        monkeypatch.setattr(st, "MUTANTS", (healthy,))
        report = st.run_selftest(seed=0, shrink=False)
        assert not report.ok
        assert report.missed == ["healthy"]
        assert any("MISSED healthy" in line for line in report.format_lines())


class TestOracles:
    def test_paruf_threaded_vs_sequf_stress_8_threads(self):
        """The ISSUE's stress case: the threaded variant through the fuzz
        oracle at 8 OS threads, duplicate-heavy weights included."""
        algs = {"paruf-threaded": partial(paruf_threaded, num_threads=8)}
        for index in range(25):
            case = _gen(97, index, ["tree"])
            findings = differential_check(case, algs)
            assert findings == [], [f.describe() for f in findings]

    def test_reference_parser_matches_loader_on_valid_input(self):
        status, payload = reference_parse_csv("0,1,2.5\n1,2,0.5\n", has_header=False)
        assert status == "ok"
        n, edges, weights = payload
        assert n == 3
        assert edges == [(0, 1), (1, 2)]
        assert weights == [2.5, 0.5]

    def test_reference_parser_rejects_what_the_contract_rejects(self):
        for text, tag in [
            ("0,0\n", "self-loop"),
            ("0,1\n1,0\n", "duplicate-edge"),
            ("a,b\n", "bad-int"),
            ("0,1,inf\n", "nonfinite-weight"),
            ("", "no-edges"),
        ]:
            status, got = reference_parse_csv(text, has_header=False)
            assert (status, got) == ("error", tag), text


class TestRelationsOnRealAlgorithms:
    def test_all_relations_clean(self):
        rng = np.random.default_rng(5)
        for index in range(15):
            case = _gen(5, index, ["tree"])
            findings = relations_check(case, dict(FUZZ_ALGORITHMS), rng)
            assert findings == [], [f.describe() for f in findings]


class TestShrinking:
    def test_tree_shrinks_to_a_small_witness(self):
        # A large broom with all-equal weights: the tie-break mutant fails
        # on it, and the minimal witness is tiny.
        n = 20
        edges = np.array([[0, v] for v in range(1, n)], dtype=np.int64)
        case = TreeCase(
            n=n, edges=edges, weights=np.zeros(n - 1), label="star/all-equal"
        )

        def still_fails(c):
            return bool(differential_check(c, {"mut": mutant_dropped_tiebreak}))

        assert still_fails(case)
        small = TREE.shrink(case, still_fails)
        assert still_fails(small)
        assert small.n <= 4
        assert small.label.count("~shrunk") == 1

    def test_csv_shrinks_to_the_failing_line(self):
        case = CsvCase(
            text="0,1,1.0\n1,2,2.0\n3,3,4.0\n2,4,1.5\n", has_header=False, label="t"
        )

        def still_fails(c):
            status, tag = reference_parse_csv(c.text, c.has_header)
            return status == "error" and tag == "self-loop"

        small = CSV.shrink(case, still_fails)
        assert still_fails(small)
        assert len([ln for ln in small.text.splitlines() if ln]) == 1

    def test_npz_shrinks_by_truncation(self):
        case = NpzCase(data=b"\x00" * 4096, label="junk")
        small = NPZ.shrink(case, lambda c: True)
        assert len(small.data) == 0


class TestCorpusFormat:
    def test_roundtrip_all_kinds(self, tmp_path):
        cases = [
            TreeCase(
                n=3,
                edges=np.array([[0, 1], [1, 2]], dtype=np.int64),
                weights=np.array([0.1, 5e-324]),
                label="t",
            ),
            DynamicCase(
                n=3,
                edges=np.array([[0, 1], [1, 2]], dtype=np.int64),
                weights=np.array([0.1, 5e-324]),
                batches=(
                    (((0, 2, 2.5),), ((0, 1),)),
                    ((), ()),
                ),
                label="d",
            ),
            GraphCase(
                n=3,
                edges=np.array([[0, 1], [1, 2], [0, 2]], dtype=np.int64),
                weights=np.array([0.5, -0.0, 1e308]),
                chunk=2,
                label="g",
            ),
            CsvCase(text="0,0\n", has_header=None, label="c"),
            NpzCase(data=b"\x80\x00\xff", label="n"),
        ]
        for case in cases:
            finding = Finding(check="x:y", message="msg", case=case)
            path = save_finding(finding, tmp_path)
            check, message, loaded = load_entry(path)
            assert (check, message) == ("x:y", "msg")
            assert _case_equal(case, loaded)

    def test_content_addressed_and_stable(self):
        finding = Finding(
            check="io:csv:exception-leak",
            message="m",
            case=CsvCase(text="0,1e3\n", has_header=False, label="l"),
        )
        assert entry_filename(finding) == entry_filename(finding)
        assert entry_bytes(finding) == entry_bytes(finding)
        assert entry_filename(finding).startswith("csv-")
        assert entry_bytes(finding).endswith(b"\n")

    def test_failed_save_keeps_previous_entry(self, tmp_path):
        from conftest import file_size_limit

        finding = Finding(
            check="io:csv:exception-leak",
            message="m",
            case=CsvCase(text="0,1e3\n", has_header=False, label="l"),
        )
        path = save_finding(finding, tmp_path)
        before = path.read_bytes()
        with file_size_limit(len(before) - 1), pytest.raises(OSError):
            save_finding(finding, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file
        assert path.read_bytes() == before


class TestCli:
    def test_fuzz_ok_exit_zero(self, tmp_path, capsys):
        rc = cli_main(
            ["fuzz", "--cases", "20", "--seed", "4", "--corpus", str(tmp_path)]
        )
        assert rc == 0
        assert "fuzz: OK" in capsys.readouterr().out

    def test_replay_missing_dir_exit_two(self, tmp_path):
        assert cli_main(["fuzz", "--replay", str(tmp_path / "absent")]) == 2

    def test_replay_clean_and_regressing(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        # A healthy entry replays clean...
        finding = Finding(
            check="io:csv:exception-leak",
            message="m",
            case=CsvCase(text="0,1e3\n", has_header=False, label="l"),
        )
        save_finding(finding, corpus)
        assert cli_main(["fuzz", "--replay", str(corpus)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out
        # ...an unreadable one counts as a regression, not a crash.
        bad = corpus / "csv-badformat.json"
        bad.write_text('{"format": "other/1"}\n')
        assert cli_main(["fuzz", "--replay", str(corpus)]) == 1
        assert "corpus:invalid-entry" in capsys.readouterr().out

    def test_selftest_exit_zero(self, capsys):
        assert cli_main(["fuzz", "--selftest", "--no-shrink"]) == 0
        assert "fuzz selftest: OK" in capsys.readouterr().out

    def test_graph_domain_selectable(self, tmp_path, capsys):
        rc = cli_main(["fuzz", "--domains", "graph", "--cases", "5", "--corpus", str(tmp_path)])
        assert rc == 0
        assert "fuzz: OK" in capsys.readouterr().out

    def test_unknown_domain_exit_two(self, capsys):
        assert cli_main(["fuzz", "--domains", "grpah", "--cases", "5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown fuzz domain 'grpah'" in err


class TestRegistry:
    def test_wheel_matches_the_registry(self):
        assert [(d.name, d.weight) for d in DOMAINS] == [
            ("tree", 5),
            ("dynamic", 2),
            ("graph", 2),
            ("csv", 2),
            ("npz", 1),
        ]

    def test_unknown_domain_name_raises(self):
        with pytest.raises(ReproError, match="unknown fuzz domain 'grpah'"):
            run_fuzz(seed=0, max_cases=5, domains=("grpah",))

    def test_subset_keeps_registry_order(self):
        for index in range(30):
            assert _case_equal(_gen(2, index, ["csv", "tree"]), _gen(2, index, ["tree", "csv"]))

    def test_domain_defined_outside_the_package(self, monkeypatch, tmp_path):
        """A domain added to the registry from this file alone runs through
        the fuzz loop, the shrinker, the corpus writer and the replay."""
        from repro.fuzz import domains
        from repro.fuzz.corpus import replay_corpus
        from repro.fuzz.domains import Domain

        def integers(threshold: int) -> Domain:
            def check(case, rng):
                if case <= threshold:
                    return []
                return [Finding(check="int:above", message=f"above {threshold}", case=case)]

            def halve(case, still_fails):
                while case > 1 and still_fails(case // 2):
                    case //= 2
                return case

            return Domain(
                name="int",
                weight=1,
                case_type=int,
                generate=lambda rng: int(rng.integers(0, 10_000)),
                check=check,
                shrink=halve,
                encode=lambda case: {"value": case},
                decode=lambda payload: int(payload["value"]),
            )

        monkeypatch.setattr(domains, "DOMAINS", (*DOMAINS, integers(100)))
        report = run_fuzz(seed=0, max_cases=20, corpus_dir=tmp_path, domains=["int"])
        assert [f.check for f in report.findings] == ["int:above"]
        assert 100 < report.findings[0].case <= 201  # halved as far as it still fails
        [path] = report.corpus_paths
        assert path.name.startswith("int-")
        assert [[f.case for f in found] for _, found in replay_corpus(tmp_path)] == [
            [report.findings[0].case]
        ]
        # With the "bug" fixed, the same entry replays clean.
        monkeypatch.setattr(domains, "DOMAINS", (*DOMAINS, integers(10_000)))
        assert replay_corpus(tmp_path) == [(path, [])]


class TestGraphDomain:
    def test_clean_engines_produce_no_findings(self):
        report = run_fuzz(seed=3, max_cases=40, domains=("graph",))
        assert report.ok, [f.describe() for f in report.findings]

    def test_graph_corpus_roundtrip_is_byte_stable(self, tmp_path):
        from repro.fuzz.generators import gen_graph_case

        case = gen_graph_case(case_rng(1, 0))
        finding = Finding(check="mst:streaming", message="x", case=case)
        path = save_finding(finding, tmp_path)
        check, message, loaded = load_entry(path)
        assert (check, message) == ("mst:streaming", "x")
        assert _case_equal(case, loaded)
        assert entry_bytes(finding) == path.read_bytes()

    def test_streaming_mutant_shrinks_to_a_small_witness(self):
        """The dropped-window mutant's shrunken case keeps failing and
        only ever shrinks (never grows)."""
        from repro.fuzz.oracles import mst_check
        from repro.fuzz.selftest import _streaming_dropped_window

        report = run_fuzz(
            seed=0,
            max_cases=150,
            domains=(
                replace(
                    GRAPH,
                    check=lambda case, rng: mst_check(
                        case, streaming_fn=_streaming_dropped_window
                    ),
                ),
            ),
            stop_on_finding=True,
        )
        assert report.findings
        small = report.findings[0].case
        assert mst_check(small, streaming_fn=_streaming_dropped_window)
        assert not mst_check(small)  # the real engine passes on the witness
