"""The committed regression corpus under tests/fixtures/corpus/.

Every entry pins the shrunken minimal input for a bug the fuzzer caught;
replaying must stay clean forever.  The three ``csv-*`` entries are the
io bugs this subsystem originally found (header row kept, ValueError
leak, self-loop accepted); the ``tree-*`` entries are the minimal
witnesses of the selftest's algorithm mutants.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.checkers.runner import run_corpus_replay
from repro.fuzz.corpus import (
    CORPUS_FORMAT,
    entry_bytes,
    load_entry,
    replay_corpus,
)
from repro.fuzz.generators import CsvCase
from repro.fuzz.oracles import Finding

CORPUS_DIR = Path(__file__).parent / "fixtures" / "corpus"


def test_corpus_is_committed_and_nonempty():
    entries = sorted(CORPUS_DIR.glob("*.json"))
    assert len(entries) >= 6
    kinds = {p.name.split("-")[0] for p in entries}
    assert {"csv", "tree"} <= kinds


def test_every_entry_replays_clean():
    results = replay_corpus(CORPUS_DIR)
    assert results
    for path, findings in results:
        assert findings == [], (
            f"{path.name} regressed: " + "; ".join(f.describe() for f in findings)
        )


def test_entries_are_byte_canonical():
    """Each committed file must be the canonical serialization of its own
    payload and carry the content-addressed name -- guards hand edits."""
    for path in sorted(CORPUS_DIR.glob("*.json")):
        check, message, case = load_entry(path)
        canonical = entry_bytes(Finding(check=check, message=message, case=case))
        assert path.read_bytes() == canonical, path.name


def test_the_three_io_bugs_are_pinned():
    checks = set()
    for path in sorted(CORPUS_DIR.glob("csv-*.json")):
        check, _, case = load_entry(path)
        assert isinstance(case, CsvCase)
        checks.add(check)
    assert checks == {
        "io:csv:result-mismatch",  # header row silently kept
        "io:csv:exception-leak",  # raw ValueError escaped
        "io:csv:accepted-malformed",  # self loop ingested
    }


def test_checkers_integration_replays_this_corpus(monkeypatch):
    """``repro check`` replays the committed corpus in its default battery."""
    monkeypatch.chdir(Path(__file__).parent.parent)
    assert run_corpus_replay() == []


def test_checkers_integration_skips_missing_dir(tmp_path):
    assert run_corpus_replay(tmp_path / "absent") == []


def test_checkers_integration_reports_regressions(tmp_path):
    bad = tmp_path / "corpus"
    bad.mkdir()
    (bad / "csv-deadbeef0000.json").write_text("not json")
    failures = run_corpus_replay(bad)
    assert len(failures) == 1
    assert "csv-deadbeef0000.json" in failures[0]


def test_format_marker_is_versioned():
    assert CORPUS_FORMAT == "repro-fuzz-corpus/1"
    for path in CORPUS_DIR.glob("*.json"):
        assert f'"{CORPUS_FORMAT}"' in path.read_text()


@pytest.mark.parametrize("name_prefix", ["csv", "tree"])
def test_entry_names_are_content_addressed(name_prefix):
    import hashlib

    for path in CORPUS_DIR.glob(f"{name_prefix}-*.json"):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        assert path.name == f"{name_prefix}-{digest}.json"


def test_selftest_reproduces_the_committed_corpus(tmp_path):
    """The selftest at seed 0 writes every committed entry byte for byte,
    plus the shrunken witnesses of the mutants the corpus does not pin."""
    from repro.fuzz.selftest import run_selftest

    report = run_selftest(seed=0, corpus_dir=tmp_path)
    assert report.ok, report.missed
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "csv-2eb2218bea20.json",
        "csv-a4e4e2be93f8.json",
        "csv-cb573798ae90.json",
        "dynamic-0435daa37309.json",
        "dynamic-c20c33693efe.json",
        "graph-dfdc81f0d90c.json",
        "tree-4043640dc91c.json",
        "tree-8af54295bfd7.json",
        "tree-ab93053e30d5.json",
        "tree-cfad0b91c757.json",
        "tree-f235281bef05.json",
    ]
    for committed in sorted(CORPUS_DIR.glob("*.json")):
        assert (tmp_path / committed.name).read_bytes() == committed.read_bytes(), committed.name
