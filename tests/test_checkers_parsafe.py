"""Tests for the RPR3xx parallel-safety rules of repro.checkers.analyzer."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from conftest import RegistryFixtures, family_codes, family_targets
import repro
from repro.checkers.analyzer import analyze, analyze_source
from repro.checkers.runner import run_interleaving_battery

FIXTURES = Path(__file__).parent / "fixtures" / "parsafe"
PACKAGE = Path(repro.__file__).parent


def parsafe_findings(source, path="<string>"):
    return analyze_source(source, path, ("parsafe",))


def thread_worker(body, owns=None):
    """Source that runs ``fill(lo, hi)``, whose body is ``body`` over the
    shared slabs ``out`` and ``other``, on a started and joined thread,
    declared ``@owns(owns)`` when given."""
    decorator = f"    @owns({owns!r})\n" if owns else ""
    return (
        "import threading\n"
        "from repro.checkers.ownership import owns\n"
        "def f(out, other, n):\n"
        f"{decorator}"
        "    def fill(lo, hi):\n"
        + textwrap.indent(body, " " * 8)
        + "    worker = threading.Thread(target=fill, args=(0, n))\n"
        "    worker.start()\n"
        "    worker.join()\n"
    )


class TestFixtures(RegistryFixtures):
    """One fixture file per code: positives fire, noqa'd twins stay quiet."""

    family = "parsafe"


class TestRules:
    def test_rpr302_lock_guarded_write_exempt(self):
        src = thread_worker("out[lo:hi] = 0\nwith lock:\n    other[lo] = 1\n", owns="out[lo:hi]")
        assert parsafe_findings(src) == []

    @pytest.mark.parametrize(
        "context, codes",
        [
            ("block", ["RPR308"]),
            ("clock()", ["RPR308"]),
            ("status_lock", []),
            ("self._lock", []),
        ],
        ids=["block", "clock-call", "status-lock", "self-lock"],
    )
    def test_lock_is_matched_as_a_name_token(self, context, codes):
        # Only a context named as a lock exempts the writes under it.
        src = thread_worker(f"with {context}:\n    out[lo:hi] = 1.0\n")
        assert [d.code for d in parsafe_findings(src)] == codes

    @pytest.mark.parametrize(
        "body, owns, code, named",
        [
            ("out[lo], other[lo] = 1.0, 2.0\n", None, "RPR308", "other, out"),
            ("out[lo], other[lo] = 1.0, 2.0\n", "out[lo:hi]", "RPR302", "'other'"),
            ("out[lo] += 1\n", None, "RPR308", "out"),
        ],
        ids=["tuple", "tuple-owned", "augmented"],
    )
    def test_every_subscript_store_is_a_write(self, body, owns, code, named):
        findings = parsafe_findings(thread_worker(body, owns=owns))
        assert [d.code for d in findings] == [code]
        assert named in findings[0].message

    def test_rpr308_non_worker_function_unanalyzed(self):
        # Plain sequential code writing globals is not parsafe's business.
        src = "parents = [0] * 8\n\ndef f(i):\n    parents[i] = 1\n"
        assert parsafe_findings(src) == []

    def test_rpr308_reported_at_worker_def(self):
        src = thread_worker("out[lo:hi] = 1.0\n")
        findings = parsafe_findings(src)
        assert [d.code for d in findings] == ["RPR308"]
        assert "def fill" in src.splitlines()[findings[0].line - 1]

    def test_syntax_error_reported_not_raised(self):
        findings = parsafe_findings("def broken(:\n")
        assert [d.code for d in findings] == ["RPR000"]


class TestSelfLint:
    def test_concurrency_surface_is_clean(self):
        assert analyze(None, ["parsafe"]) == {"parsafe": []}

    def test_default_targets_exist(self):
        targets = family_targets("parsafe")
        assert targets
        for rel in targets:
            assert (PACKAGE / rel).exists(), f"default parsafe target {rel} is missing"

    def test_shipped_kernels_declare_ownership(self):
        """Acceptance: the public parallel kernels carry @owns."""
        import ast

        for rel in ("core/paruf_sync.py", "core/paruf_threaded.py"):
            path = PACKAGE / rel
            tree = ast.parse(path.read_text(encoding="utf-8"))
            decorated = [
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and any(
                    getattr(getattr(d, "func", d), "id", None) == "owns"
                    or getattr(getattr(d, "func", d), "attr", None) == "owns"
                    for d in node.decorator_list
                )
            ]
            assert decorated, f"{rel} has no @owns-decorated kernel"


class TestRunnerIntegration:
    def test_check_parsafe_clean_repo(self, capsys):
        from repro.checkers.runner import run_check

        assert run_check(lint=False, races=False, parsafe=True) == 0
        assert "repro check: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("code", family_codes("parsafe"))
    def test_check_parsafe_fails_on_each_fixture(self, code, capsys):
        from repro.checkers.runner import run_check

        path = str(FIXTURES / f"{code.lower()}.py")
        assert run_check(paths=[path], lint=False, races=False, parsafe=True) == 1
        assert code in capsys.readouterr().out

    def test_json_report_shape(self, capsys):
        from repro.checkers.runner import run_check

        path = str(FIXTURES / "rpr305.py")
        code = run_check(
            paths=[path], lint=False, races=False, parsafe=True, json_output=True
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 1
        assert payload["ok"] is False
        assert payload["parsafe"]["enabled"] is True
        assert payload["parsafe"]["count"] == len(payload["parsafe"]["findings"])
        assert {f["code"] for f in payload["parsafe"]["findings"]} == {"RPR305"}
        # Explicit paths skip the interleaving battery (fixture mode).
        assert payload["interleaving"] == {
            "enabled": False,
            "count": 0,
            "failures": [],
        }

    def test_json_clean_repo_runs_battery(self, capsys):
        from repro.checkers.runner import run_check

        code = run_check(lint=False, races=False, parsafe=True, json_output=True)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["parsafe"] == {"enabled": True, "count": 0, "findings": []}
        assert payload["interleaving"] == {
            "enabled": True,
            "count": 0,
            "failures": [],
        }

    def test_parsafe_off_by_default(self, capsys):
        from repro.checkers.runner import run_check

        path = str(FIXTURES / "rpr305.py")
        assert run_check(paths=[path], lint=True, races=False) == 0
        capsys.readouterr()

    def test_cli_parsafe_flag(self, capsys):
        from repro.cli import main

        path = str(FIXTURES / "rpr305.py")
        assert main(["check", "--parsafe", "--no-lint", "--no-races", path]) == 1
        assert "RPR305" in capsys.readouterr().out


class TestInterleavingBattery:
    def test_battery_passes_on_shipped_kernels(self):
        assert run_interleaving_battery(seeds=3, num_threads=3) == []

    def test_battery_catches_a_lost_update(self, monkeypatch):
        """Teeth check: a scheduler that loses one task's result under
        hostile schedules must be flagged by the battery."""
        from repro.runtime import interleave
        from repro.runtime.scheduler import Scheduler

        real = Scheduler.run_round

        def lossy(self, tasks, where=None):
            values = real(self, tasks, where)
            schedule = interleave.current()
            if schedule is not None and len(values) > 1:
                # The schedule-chosen victim's result is overwritten by its
                # neighbour's: the classic lost update, deterministically seeded.
                victim = schedule.permutation(len(values))[0]
                values[victim] = values[(victim + 1) % len(values)]
            return values

        monkeypatch.setattr(Scheduler, "run_round", lossy)
        failures = run_interleaving_battery(seeds=4, num_threads=2)
        assert any(f.startswith("paruf_sync") for f in failures)
