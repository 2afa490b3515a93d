"""The dynamic-vs-recompute fuzz arm: oracle, mutants, shrinking, corpus."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.fuzz import case_rng, gen_dynamic_case, run_fuzz
from repro.fuzz.corpus import load_entry, save_finding
from repro.fuzz.domains import DYNAMIC
from repro.fuzz.generators import DynamicCase
from repro.fuzz.oracles import Finding, dynamic_check
from repro.fuzz.selftest import _no_rollback_engine, _unmerged_spines_engine
from repro.fuzz.shrink import shrink_dynamic_case


def _engine_domain(factory):
    """The dynamic domain judged against the engine ``factory`` builds."""
    return replace(DYNAMIC, check=lambda case, rng: dynamic_check(case, engine_factory=factory))


def _some_case(seed: int = 11, index: int = 0) -> DynamicCase:
    return gen_dynamic_case(case_rng(seed, index))


class TestGenerator:
    def test_deterministic_per_seed_index(self):
        a = gen_dynamic_case(case_rng(3, 5))
        b = gen_dynamic_case(case_rng(3, 5))
        assert a.n == b.n
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.weights, b.weights)
        assert a.batches == b.batches
        assert a.label == b.label

    def test_cases_are_well_formed(self):
        for index in range(25):
            case = _some_case(index=index)
            assert case.n >= 2
            assert case.edges.shape[0] == case.weights.shape[0]
            assert case.edges.shape[0] >= case.n - 1
            assert 1 <= len(case.batches) <= 4


class TestOracle:
    def test_real_engine_is_clean(self):
        report = run_fuzz(seed=2, max_cases=60, domains=("dynamic",))
        assert report.ok, [f.describe() for f in report.findings]

    def test_unmerged_spines_mutant_is_caught(self):
        report = run_fuzz(
            seed=0,
            max_cases=150,
            domains=(_engine_domain(_unmerged_spines_engine),),
            stop_on_finding=True,
            shrink=False,
        )
        assert not report.ok
        assert any(f.check.startswith("dynamic:") for f in report.findings)

    def test_no_rollback_mutant_is_caught(self):
        report = run_fuzz(
            seed=0,
            max_cases=150,
            domains=(_engine_domain(_no_rollback_engine),),
            stop_on_finding=True,
            shrink=False,
        )
        assert not report.ok
        assert any(f.check == "dynamic:rollback" for f in report.findings)

    def test_direct_check_on_generated_cases(self):
        for index in range(15):
            case = _some_case(seed=9, index=index)
            assert dynamic_check(case) == []


class TestShrink:
    def test_shrinker_reduces_a_witness(self):
        # Find a failing case for the unmerged-spines mutant, then shrink it
        # against the same predicate the runner would use.
        witness = None
        for index in range(150):
            case = gen_dynamic_case(case_rng(0, index))
            if any(
                f.check == "dynamic:vs-recompute"
                for f in dynamic_check(case, engine_factory=_unmerged_spines_engine)
            ):
                witness = case
                break
        assert witness is not None

        def still_fails(c: DynamicCase) -> bool:
            return any(
                f.check == "dynamic:vs-recompute"
                for f in dynamic_check(c, engine_factory=_unmerged_spines_engine)
            )

        small = shrink_dynamic_case(witness, still_fails)
        assert still_fails(small)

        def op_count(c: DynamicCase) -> int:
            return sum(len(ins) + len(dels) for ins, dels in c.batches)

        assert op_count(small) <= op_count(witness)
        assert small.edges.shape[0] <= witness.edges.shape[0]

    def test_shrinker_discards_disconnecting_edge_drops(self):
        # A predicate that accepts everything still must yield a connected,
        # checkable case (disconnected candidates fail dynamic_check's init
        # prediction only if the engine disagrees -- i.e. never).
        case = _some_case(seed=4, index=1)
        small = shrink_dynamic_case(case, lambda c: dynamic_check(c) == [])
        assert dynamic_check(small) == []


class TestCorpus:
    def test_dynamic_finding_roundtrips(self, tmp_path):
        case = _some_case(seed=6, index=2)
        finding = Finding(check="dynamic:vs-recompute", message="m", case=case)
        path = save_finding(finding, tmp_path)
        assert path.name.startswith("dynamic-")
        check, message, loaded = load_entry(path)
        assert (check, message) == ("dynamic:vs-recompute", "m")
        assert isinstance(loaded, DynamicCase)
        assert loaded.n == case.n
        assert np.array_equal(loaded.edges, case.edges)
        assert np.array_equal(loaded.weights, case.weights)
        assert loaded.batches == case.batches
