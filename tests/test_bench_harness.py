"""Bench harness plumbing: inputs registry, instrumented runs, simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import (
    AlgoRun,
    format_table,
    fmt_seconds,
    run_algorithm,
    simulated_time,
)
from repro.bench.inputs import (
    BENCH_THREADS,
    SYNTHETIC_FAMILIES,
    bench_sizes,
    make_input,
    realworld_inputs,
)
from repro.core.api import ALGORITHMS
from repro.datasets.ladders import FAMILY_BUILDERS
from repro.runtime.instrumentation import PhaseCost
from repro.trees.generators import path_tree
from repro.trees.validation import validate_tree_edges

#: ``(phase, work, depth)`` in recorded order, then the run's total
#: ``(work, depth)``, for every registered algorithm on
#: ``FAMILY_BUILDERS["random"](512)`` (``path_tree(64)`` for cartesian),
#: seed 0 where the algorithm takes one.  Charges are deterministic, so a
#: drift here is an accounting change, not noise.
PINNED_RUNS = {
    "sequf": ([("sort", 4599.0, 81.0), ("merge", 1021.0, 1021.0)], (5620.0, 1102.0)),
    "paruf": (
        [
            ("preprocess", 5621.0, 93.85195613157688),
            ("async", 3046.1368372598226, 185.47718738964565),
            ("postprocess", 155.0, 25.0),
        ],
        (8822.136837259823, 304.32914352122253),
    ),
    "paruf-sync": (
        [
            ("preprocess", 5621.0, 93.85195613157688),
            ("rounds", 3052.1368372598045, 410.47718738964556),
            ("postprocess", 150.0, 25.000000000000057),
        ],
        (8823.136837259804, 529.3291435212225),
    ),
    "rctt": (
        [("build", 650.0, 130.0), ("trace", 643.0, 14.0), ("sort", 1084.0, 33.0)],
        (2377.0, 177.0),
    ),
    "tree-contraction": (
        [
            ("contract", 1504.0, 130.0),
            ("merge", 4867.471512167818, 412.594929460466),
            ("finalize", 145.0, 25.0),
        ],
        (6516.471512167818, 567.594929460466),
    ),
    "tree-contraction-list": (
        [("contract", 1504.0, 130.0), ("merge", 3665.0, 376.0), ("finalize", 145.0, 25.0)],
        (5314.0, 531.0),
    ),
    "divide-conquer": ([("solve", 11368.0, 2187.0)], (11368.0, 2187.0)),
    "weight-dc": ([("solve", 2720.0, 148.0)], (2720.0, 148.0)),
    "cartesian": ([], (189.0, 189.0)),
    "brute": ([], (34623.0, 34623.0)),
}

_SEEDED = ("paruf", "paruf-sync", "rctt", "tree-contraction", "tree-contraction-list")


class TestInputs:
    @pytest.mark.parametrize("family", SYNTHETIC_FAMILIES)
    def test_every_family_builds(self, family):
        tree = make_input(family, 300, seed=1)
        assert tree.n == 300
        validate_tree_edges(tree.n, tree.edges)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="input family"):
            make_input("torus", 100)

    def test_weight_scheme_applied(self):
        perm = make_input("path-perm", 100, seed=0)
        unit = make_input("path", 100, seed=0)
        assert not np.array_equal(perm.weights, unit.weights)
        assert (unit.weights == 1.0).all()

    def test_low_par_family(self):
        tree = make_input("path-low-par", 50, seed=0)
        w = tree.weights
        assert (np.diff(w[:24]) > 0).all()

    def test_sizes_scale_with_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "3")
        assert bench_sizes() == (30_000, 120_000, 480_000)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "bogus")
        assert bench_sizes() == (10_000, 40_000, 160_000)

    def test_threads_cover_paper_axis(self):
        assert BENCH_THREADS[0] == 1
        assert BENCH_THREADS[-1] == 192

    def test_realworld_inputs_are_spanning_trees(self):
        trees = realworld_inputs(500, seed=0)
        assert set(trees) == {"rmat-social", "powerlaw-follow", "knn-points"}
        for name, tree in trees.items():
            assert tree.m == tree.n - 1, name
            validate_tree_edges(tree.n, tree.edges)


class TestRuns:
    def test_run_algorithm_populates_everything(self):
        tree = make_input("knuth-perm", 400, seed=0)
        run = run_algorithm("rctt", tree, keep_parents=True)
        assert run.algorithm == "rctt"
        assert run.wall_seconds > 0
        assert run.work > 0
        assert run.depth > 0
        assert run.parallelism > 1
        assert run.parents is not None and run.parents.shape == (399,)
        assert set(run.phases) == {"build", "trace", "sort"}

    def test_pins_cover_the_registry(self):
        assert set(PINNED_RUNS) == set(ALGORITHMS)

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_phases_and_charges_pinned(self, name):
        tree = path_tree(64) if name == "cartesian" else FAMILY_BUILDERS["random"](512)
        run = run_algorithm(name, tree, **({"seed": 0} if name in _SEEDED else {}))
        phases, totals = PINNED_RUNS[name]
        assert list(run.phases) == [p for p, _, _ in phases]
        got = [(c.work, c.depth) for c in run.phase_costs.values()]
        assert got == [pytest.approx((w, d), rel=1e-12) for _, w, d in phases]
        assert (run.work, run.depth) == pytest.approx(totals, rel=1e-12)

    def test_parents_dropped_by_default(self):
        tree = make_input("path", 50, seed=0)
        assert run_algorithm("sequf", tree).parents is None

    def test_simulated_time_monotone_in_threads(self):
        tree = make_input("star-perm", 500, seed=0)
        run = run_algorithm("paruf", tree)
        times = [simulated_time(run, p) for p in (1, 2, 8, 64, 192)]
        assert all(a >= b - 1e-12 for a, b in zip(times, times[1:]))
        assert times[0] <= run.wall_seconds * 1.01

    def test_simulated_time_fallback_without_phases(self):
        run = AlgoRun("x", 10, wall_seconds=1.0, work=1000.0, depth=10.0)
        assert simulated_time(run, 1) == pytest.approx(1.0)
        assert simulated_time(run, 100) < 0.1

    def test_sequential_run_does_not_speed_up(self):
        run = AlgoRun(
            "x",
            10,
            wall_seconds=1.0,
            work=100.0,
            depth=100.0,
            phase_costs={"loop": PhaseCost(1.0, 100.0, 100.0)},
        )
        assert simulated_time(run, 192) == pytest.approx(1.0)


class TestFormatting:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(l) for l in lines[2:]}) == 1

    def test_fmt_seconds_ranges(self):
        assert fmt_seconds(123.4) == "123"
        assert fmt_seconds(1.5) == "1.50"
        assert fmt_seconds(0.01234) == "0.012"
