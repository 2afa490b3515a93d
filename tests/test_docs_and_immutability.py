"""Documentation integrity and input immutability.

* README code blocks must actually run (docs rot otherwise);
* documented files and commands must exist;
* no algorithm may mutate its input tree (several implementations use
  in-place scratch tricks internally -- this guards their restore paths).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import algorithm_backends, weighted_trees
from repro.core.api import ALGORITHMS, resolve_algorithm

ROOT = Path(__file__).resolve().parent.parent


class TestReadme:
    def test_quickstart_block_runs(self):
        """Execute the README's first python block end to end."""
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        assert blocks, "README lost its python examples"
        ns: dict = {}
        exec(blocks[0], ns)  # the quickstart block
        assert "dend" in ns
        assert ns["dend"].height >= 1

    def test_points_block_runs(self):
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        assert len(blocks) >= 2
        rng = np.random.default_rng(0)
        ns = {"points": rng.random((40, 2))}
        exec(blocks[1], ns)
        assert ns["labels"].shape == (40,)

    def test_documented_files_exist(self):
        for name in ("DESIGN.md", "EXPERIMENTS.md", "docs/API.md", "docs/THEORY.md"):
            assert (ROOT / name).exists(), name
        for example in re.findall(r"`(\w+\.py)`", (ROOT / "README.md").read_text()):
            if example in ("setup.py",):
                continue
            assert (ROOT / "examples" / example).exists(), example

    def test_documented_bench_modules_exist(self):
        import importlib

        text = (ROOT / "README.md").read_text()
        for mod in re.findall(r"python -m (repro\.bench\.\w+)", text):
            importlib.import_module(mod)

    def test_algorithm_table_matches_registry(self):
        """Every algorithm named in the README table is registered."""
        text = (ROOT / "README.md").read_text()
        documented = set(re.findall(r"^\| `([\w-]+)` —", text, flags=re.M))
        assert documented <= set(ALGORITHMS), documented - set(ALGORITHMS)


class TestStaticAnalysisDocs:
    """docs/API.md "Static analysis" is written by hand: pin it to the registry."""

    @pytest.fixture
    def section(self):
        text = (ROOT / "docs" / "API.md").read_text()
        start = text.index("### Static analysis")
        return text[start : text.index("\n### ", start + 1)]

    def test_code_table_matches_registry(self, section):
        from repro.checkers.analyzer import RULES

        rows = re.findall(r"^\| (RPR\d+) \| (\w+) \|", section, flags=re.M)
        assert sorted(rows) == sorted((rule.code, rule.family) for rule in RULES)

    def test_default_sweeps_match_registry(self, section):
        from repro.checkers.analyzer import RULES

        for family in ("lint", "slabs", "parsafe"):
            line = re.search(rf"^- `{family}` — (.*?)\.\n(?:-|\n)", section, flags=re.M | re.S)
            targets = [t for rule in RULES if rule.family == family for t in rule.default_targets]
            if line.group(1) == "the whole `repro` package":
                assert set(targets) == {"."}, family
            else:
                documented = re.findall(r"`([\w/.]+)`", line.group(1))
                assert documented == list(dict.fromkeys(targets))


class TestFuzzDocs:
    """docs/API.md's fuzz section lists the domain registry as it is."""

    def test_domain_table_matches_registry(self):
        from repro.fuzz.domains import DOMAINS

        text = (ROOT / "docs" / "API.md").read_text()
        start = text.index("## Fuzzing")
        section = text[start : text.index("\n## ", start + 1)]
        rows = re.findall(r"^\| `(\w+)` \| (\d+) \|", section, flags=re.M)
        assert rows == [(d.name, str(d.weight)) for d in DOMAINS]


class TestInputImmutability:
    @pytest.mark.parametrize(
        "algorithm,backend",
        algorithm_backends([a for a in ALGORITHMS if a != "cartesian"]),
    )
    def test_algorithms_do_not_mutate_input(self, algorithm, backend):
        from conftest import make_tree
        from repro.trees.weights import apply_scheme

        tree = make_tree("knuth", 60, seed=9).with_weights(apply_scheme("perm", 59, seed=10))
        edges_before = tree.edges.copy()
        weights_before = tree.weights.copy()
        ranks_before = tree.ranks.copy()
        resolve_algorithm(algorithm, backend)(tree)
        np.testing.assert_array_equal(tree.edges, edges_before, err_msg=algorithm)
        np.testing.assert_array_equal(tree.weights, weights_before, err_msg=algorithm)
        np.testing.assert_array_equal(tree.ranks, ranks_before, err_msg=algorithm)

    @settings(max_examples=20, deadline=None)
    @given(tree=weighted_trees(max_n=20))
    def test_repeated_runs_identical(self, tree):
        """Calling any algorithm twice on the same tree object gives the
        same answer -- no hidden state left behind."""
        for algorithm in ("paruf", "rctt", "tree-contraction", "weight-dc"):
            first = ALGORITHMS[algorithm](tree)
            second = ALGORITHMS[algorithm](tree)
            np.testing.assert_array_equal(first, second, err_msg=algorithm)
