"""Tests for the RPR2xx slab & effect rules of repro.checkers.analyzer."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import RegistryFixtures, family_codes, family_targets
import repro
from repro.checkers.analyzer import analyze, analyze_source

FIXTURES = Path(__file__).parent / "fixtures" / "slabs"
PACKAGE = Path(repro.__file__).parent


def slab_findings(source, path="<string>"):
    return analyze_source(source, path, ("slabs",))


class TestFixtures(RegistryFixtures):
    """One fixture file per code: positives fire, noqa'd twins stay quiet."""

    family = "slabs"


class TestRules:
    def test_rpr201_positional_dtype_accepted(self):
        src = "import numpy as np\n\ndef f():\n    return np.full(4, -1, np.int64)\n"
        assert slab_findings(src) == []

    def test_rpr201_asarray_exempt(self):
        src = "import numpy as np\n\ndef f(xs):\n    return np.asarray(xs)\n"
        assert slab_findings(src) == []

    def test_rpr202_hoisted_conversion_clean(self):
        src = (
            "import numpy as np\n"
            "def f(xs):\n"
            "    ys = xs.astype(np.float64)\n"
            "    for _ in range(3):\n"
            "        ys = ys + 1\n"
            "    return ys\n"
        )
        assert slab_findings(src) == []

    def test_rpr202_while_loop_counts(self):
        src = (
            "import numpy as np\n"
            "def f(xs):\n"
            "    while xs.size:\n"
            "        xs = xs[1:].astype(np.int64)\n"
            "    return xs\n"
        )
        assert [d.code for d in slab_findings(src)] == ["RPR202"]

    def test_rpr203_plain_slice_store_clean(self):
        src = "def f(a):\n    a[1:3][0] = 1.0\n    return a\n"
        assert slab_findings(src) == []

    def test_rpr203_list_of_lists_clean(self):
        src = "def f(grid, i, j, v):\n    grid[i][j] = v\n    return grid\n"
        assert slab_findings(src) == []

    def test_rpr204_outside_loop_clean(self):
        src = "import numpy as np\n\ndef f(a, b):\n    return np.concatenate((a, b))\n"
        assert slab_findings(src) == []

    def test_rpr204_iterable_expression_not_in_loop(self):
        # The for-iterable is evaluated once, before the loop body runs.
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    for x in np.concatenate((a, b)):\n"
            "        pass\n"
        )
        assert slab_findings(src) == []

    def test_rpr205_tracks_through_producers(self):
        src = (
            "import numpy as np\n"
            "def f(mask):\n"
            "    idx = np.flatnonzero(mask)\n"
            "    for i in idx:\n"
            "        print(i)\n"
        )
        assert "RPR205" in {d.code for d in slab_findings(src)}

    def test_rpr206_bool_mask_arithmetic_clean(self):
        src = (
            "import numpy as np\n"
            "def f():\n"
            "    d = np.zeros(4, dtype=np.int64)\n"
            "    m = d > 1\n"
            "    return d + m\n"
        )
        assert slab_findings(src) == []

    def test_rpr206_reassignment_clears_tracking(self):
        src = (
            "import numpy as np\n"
            "def f(opaque):\n"
            "    a = np.zeros(4, dtype=np.int32)\n"
            "    a = opaque()\n"
            "    b = np.zeros(4, dtype=np.int64)\n"
            "    return a + b\n"
        )
        assert slab_findings(src) == []

    def test_rpr207_delegation_guard_exempt(self):
        src = (
            "from repro.checkers.contracts import slab_contract\n"
            "from repro.runtime.cost_model import instrumented\n"
            "@slab_contract(dtypes={'xs': 'int64'})\n"
            "def k_fast_helper(xs, tracker=None):\n"
            "    if instrumented(tracker):\n"
            "        return xs\n"
            "    return xs + 1\n"
        )
        assert slab_findings(src) == []

    def test_rpr207_fires_on_the_unguarded_kernel_only(self):
        path = FIXTURES / "rpr207.py"
        findings = slab_findings(path.read_text(encoding="utf-8"), str(path))
        assert [(d.code, d.line) for d in findings] == [("RPR207", 9)]
        assert "'bad_kernel'" in findings[0].message
        assert "'instrumented'" in findings[0].message

    def test_rpr208_only_inside_contracts(self):
        src = "def f(xs):\n    print(xs)\n    return xs\n"
        assert slab_findings(src) == []

    def test_rpr209_private_and_property_exempt(self):
        src = (
            "class ScratchPool:\n"
            "    def _hidden(self):\n"
            "        return 0\n"
            "    @property\n"
            "    def allocated(self):\n"
            "        return 0\n"
        )
        assert slab_findings(src) == []

    def test_syntax_error_reported_not_raised(self):
        findings = slab_findings("def broken(:\n")
        assert [d.code for d in findings] == ["RPR000"]


class TestSelfLint:
    def test_repo_backends_are_clean(self):
        assert analyze(None, ["slabs"]) == {"slabs": []}

    def test_default_targets_exist(self):
        targets = family_targets("slabs")
        assert targets
        for rel in targets:
            assert (PACKAGE / rel).exists(), f"default slab target {rel} is missing"


class TestRunnerIntegration:
    def test_check_slabs_clean_repo(self, capsys):
        from repro.checkers.runner import run_check

        assert run_check(lint=False, races=False, slabs=True) == 0
        assert "repro check: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("code", family_codes("slabs"))
    def test_check_slabs_fails_on_each_fixture(self, code, capsys):
        from repro.checkers.runner import run_check

        path = str(FIXTURES / f"{code.lower()}.py")
        assert run_check(paths=[path], lint=False, races=False, slabs=True) == 1
        assert code in capsys.readouterr().out

    def test_json_report_shape(self, capsys):
        from repro.checkers.runner import run_check

        path = str(FIXTURES / "rpr201.py")
        code = run_check(
            paths=[path], lint=False, races=False, slabs=True, json_output=True
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 1
        assert payload["ok"] is False
        assert payload["slabs"]["enabled"] is True
        assert payload["slabs"]["count"] == len(payload["slabs"]["findings"])
        assert payload["slabs"]["count"] > 0
        assert {f["code"] for f in payload["slabs"]["findings"]} == {"RPR201"}

    def test_json_clean_repo(self, capsys):
        from repro.checkers.runner import run_check

        code = run_check(lint=False, races=False, slabs=True, json_output=True)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["slabs"] == {"enabled": True, "count": 0, "findings": []}

    def test_slabs_off_by_default(self, capsys):
        from repro.checkers.runner import run_check

        path = str(FIXTURES / "rpr201.py")
        # Without --slabs the fixture passes the (lint-only) check.
        assert run_check(paths=[path], lint=True, races=False) == 0
        capsys.readouterr()

    def test_cli_slabs_flag(self, capsys):
        from repro.cli import main

        assert main(["check", "--slabs", "--no-lint", "--no-races"]) == 0
        capsys.readouterr()
        path = str(FIXTURES / "rpr209.py")
        assert main(["check", "--slabs", "--no-lint", "--no-races", path]) == 1
        assert "RPR209" in capsys.readouterr().out


class TestContractPresence:
    """Acceptance: every fast kernel and pool method carries a contract."""

    def test_fast_algorithms_all_declared(self):
        from conftest import TWINNED
        from repro.checkers.contracts import get_contract
        from repro.core.api import resolve_algorithm

        # rctt is its own array backend, so TWINNED leaves it out.
        for name in (*TWINNED, "rctt"):
            contract = get_contract(resolve_algorithm(name, "array"))
            assert contract is not None, f"the {name!r} array twin lacks @slab_contract"
            assert contract.dtypes.get("tree.edges") == ("int64",)
            assert contract.dtypes.get("tree.weights") == ("float64",)

    def test_heap_pool_public_methods_all_declared(self):
        import inspect

        from repro.checkers.contracts import get_contract
        from repro.structures.heap_pool import HeapPool

        public = [
            (name, member)
            for name, member in vars(HeapPool).items()
            if not name.startswith("_") and inspect.isfunction(member)
        ]
        assert {name for name, _ in public} == {
            "alloc",
            "roots",
            "find_min",
            "size",
            "items",
            "insert",
            "meld",
            "filter",
            "filter_and_insert",
        }
        for name, member in public:
            assert get_contract(member) is not None, f"HeapPool.{name} lacks @slab_contract"

    def test_build_rc_tree_fast_declared(self):
        from repro.checkers.contracts import get_contract
        from repro.contraction.fast import build_rc_tree_fast

        assert get_contract(build_rc_tree_fast) is not None
