"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import signal
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.api import ALGORITHMS, resolve_algorithm
from repro.errors import AlgorithmError
from repro.trees.generators import (
    balanced_binary,
    broom,
    caterpillar,
    knuth_tree,
    path_tree,
    random_tree,
    star_tree,
)
from repro.trees.weights import WEIGHT_SCHEMES, apply_scheme
from repro.trees.wtree import WeightedTree

TREE_KINDS = {
    "path": path_tree,
    "star": star_tree,
    "knuth": lambda n, seed=0: knuth_tree(n, seed=seed),
    "random": lambda n, seed=0: random_tree(n, seed=seed),
    "caterpillar": caterpillar,
    "broom": broom,
    "binary": balanced_binary,
}

SEEDED_KINDS = ("knuth", "random")


def _has_array_backend(name: str) -> bool:
    try:
        resolve_algorithm(name, "array")
    except AlgorithmError:
        return False
    return True


#: Registry names with an array backend, reached as
#: ``resolve_algorithm(name, "array")``; ``sequf`` and ``rctt`` are their own.
ARRAY_BACKED = tuple(name for name in ALGORITHMS if _has_array_backend(name))


def algorithm_backends(names: list[str]) -> list:
    """``pytest.param(name, backend)`` for each of ``names`` on the reference
    backend, plus one on the array backend for each name that has one (test
    id ``<name>-fast``), so every (algorithm, backend) pair the registry
    dispatches runs."""
    return [
        pytest.param(name, backend, id=name if backend == "reference" else f"{name}-fast")
        for name in names
        for backend in (("reference", "array") if name in ARRAY_BACKED else ("reference",))
    ]


@contextmanager
def file_size_limit(limit: int) -> Iterator[None]:
    """Inside the block, a write that would grow any file past ``limit``
    bytes fails with ``OSError(EFBIG)``: the process's ``RLIMIT_FSIZE``,
    with ``SIGXFSZ`` ignored so the write fails instead of the process."""
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def make_tree(kind: str, n: int, seed: int = 0) -> WeightedTree:
    fn = TREE_KINDS[kind]
    if kind in SEEDED_KINDS:
        return fn(n, seed=seed)
    return fn(n)


def random_weighted_tree(
    rng: np.random.Generator, n: int | None = None, max_n: int = 40
) -> WeightedTree:
    """A random topology with random-permutation weights (non-hypothesis)."""
    if n is None:
        n = int(rng.integers(2, max_n))
    kind = list(TREE_KINDS)[int(rng.integers(len(TREE_KINDS)))]
    tree = make_tree(kind, n, seed=int(rng.integers(2**31)))
    return tree.with_weights(rng.permutation(tree.m).astype(float))


@st.composite
def weighted_trees(draw, min_n: int = 2, max_n: int = 40):
    """Hypothesis strategy: arbitrary topology x arbitrary weight scheme."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(sorted(TREE_KINDS)))
    seed = draw(st.integers(0, 2**31 - 1))
    tree = make_tree(kind, n, seed=seed)
    scheme = draw(st.sampled_from(sorted(WEIGHT_SCHEMES)))
    wseed = draw(st.integers(0, 2**31 - 1))
    return tree.with_weights(apply_scheme(scheme, tree.m, seed=wseed))


@st.composite
def arbitrary_weighted_trees(draw, min_n: int = 2, max_n: int = 24):
    """Hypothesis strategy: fully arbitrary tree (random Pruefer-free
    attachment) with possibly-tied float weights."""
    n = draw(st.integers(min_n, max_n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = np.array([[p, i + 1] for i, p in enumerate(parents)], dtype=np.int64)
    weights = draw(
        st.lists(
            st.integers(0, max(1, n // 2)),  # small range forces many ties
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    return WeightedTree(n, edges, np.asarray(weights, dtype=np.float64))


RULE_FIXTURES = Path(__file__).parent / "fixtures"


def family_codes(family: str) -> list[str]:
    """The registered analyzer codes of one family, in registry order."""
    from repro.checkers.analyzer import RULES

    return [rule.code for rule in RULES if rule.family == family]


def family_targets(family: str) -> list[str]:
    """The package-relative paths one family sweeps by default."""
    from repro.checkers.analyzer import RULES

    targets = [t for rule in RULES if rule.family == family for t in rule.default_targets]
    return list(dict.fromkeys(targets))


class RegistryFixtures:
    """The fixture contract of one analyzer family, parametrized over the
    rule registry: every code has exactly one fixture,
    ``fixtures/<family>/<code>.py``, that fires only its code, carries a
    noqa'd twin, and is silenced by ``# noqa-module:``."""

    family: str

    def pytest_generate_tests(self, metafunc):
        if "code" in metafunc.fixturenames:
            metafunc.parametrize("code", family_codes(self.family))

    def findings(self, code, source=None):
        from repro.checkers.analyzer import analyze_source

        path = RULE_FIXTURES / self.family / f"{code.lower()}.py"
        source = path.read_text(encoding="utf-8") if source is None else source
        return analyze_source(source, str(path), (self.family,))

    def test_fixture_triggers_exactly_its_code(self, code):
        findings = self.findings(code)
        assert findings, f"{code.lower()}.py produced no findings"
        assert {d.code for d in findings} == {code}

    def test_noqa_suppresses_the_twin(self, code):
        source = (RULE_FIXTURES / self.family / f"{code.lower()}.py").read_text(encoding="utf-8")
        lines = source.splitlines()
        for d in self.findings(code):
            assert "noqa" not in lines[d.line - 1], f"line {d.line} carries a noqa but fired"
        # Every fixture contains at least one suppressed twin of its code.
        assert f"noqa: {code}" in source

    def test_noqa_module_silences_the_file(self, code):
        path = RULE_FIXTURES / self.family / f"{code.lower()}.py"
        source = f"# noqa-module: {code}\n" + path.read_text(encoding="utf-8")
        assert self.findings(code, source) == []

    def test_every_fixture_maps_to_a_registered_code(self):
        stems = {p.stem.upper() for p in (RULE_FIXTURES / self.family).glob("*.py")}
        assert stems == set(family_codes(self.family))


@pytest.fixture(autouse=True)
def no_leaked_race_recorder():
    """Every test starts and ends with no shadow access recorder installed.

    A leaked recorder would silently attribute one test's accesses to
    another's round; failing here pinpoints the leaking test.
    """
    from repro.checkers import access

    assert access.RECORDER is None, "a race recorder leaked into this test"
    yield
    assert access.RECORDER is None, "test leaked an installed race recorder"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_tree() -> WeightedTree:
    """The 8-vertex example-sized tree used across unit tests."""
    edges = np.array(
        [[0, 1], [1, 2], [2, 3], [2, 4], [4, 5], [4, 6], [6, 7]], dtype=np.int64
    )
    weights = np.array([3.0, 1.0, 6.0, 2.0, 5.0, 0.5, 4.0])
    return WeightedTree(8, edges, weights)
