"""Pinned regressions for the slab-discipline sweep over the array backends.

Each test here pins a fix that the RPR2xx pass forced: the vectorized
``group_by``, the mask-fold that removed the per-round ``np.concatenate``
from ``sequf_fast``, and the dtype discipline of the fast kernels and
``HeapPool`` slabs.  Bit-identity against the reference implementations is
asserted alongside each behavioral pin.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_tree
from repro.primitives.semisort import group_by


def _group_by_reference(keys, values=None):
    """The pre-sweep dict-loop implementation, kept as the oracle."""
    if values is None:
        values = np.arange(keys.shape[0], dtype=np.intp)
    out: dict = {}
    for key, val in zip(keys.tolist(), values):
        out.setdefault(key, []).append(val)
    return {k: np.asarray(v) for k, v in out.items()}


class TestGroupBySemantics:
    """The vectorized group_by must match the dict-loop it replaced."""

    def test_insertion_order_preserved(self):
        keys = np.array([5, 2, 5, 9, 2, 2], dtype=np.int64)
        got = group_by(keys)
        assert list(got) == [5, 2, 9]  # first-appearance order

    def test_matches_reference_on_random_keys(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 20, size=200).astype(np.int64)
        values = rng.integers(-50, 50, size=200).astype(np.int64)
        got = group_by(keys, values)
        expected = _group_by_reference(keys, values)
        assert list(got) == list(expected)
        for k in expected:
            assert np.array_equal(got[k], expected[k])

    def test_values_none_yields_intp_indices(self):
        keys = np.array([1, 0, 1], dtype=np.int64)
        got = group_by(keys)
        assert got[1].dtype == np.intp
        assert np.array_equal(got[1], [0, 2])
        assert np.array_equal(got[0], [1])

    def test_value_dtype_preserved(self):
        keys = np.array([0, 1, 0], dtype=np.int64)
        values = np.array([1.5, 2.5, 3.5], dtype=np.float64)
        got = group_by(keys, values)
        assert got[0].dtype == np.float64
        assert np.array_equal(got[0], [1.5, 3.5])

    def test_two_dimensional_values(self):
        keys = np.array([7, 7, 3], dtype=np.int64)
        values = np.arange(6, dtype=np.int64).reshape(3, 2)
        got = group_by(keys, values)
        assert np.array_equal(got[7], [[0, 1], [2, 3]])
        assert np.array_equal(got[3], [[4, 5]])

    def test_empty_input(self):
        assert group_by(np.array([], dtype=np.int64)) == {}

    def test_keys_are_python_ints(self):
        # Callers use group keys for dict lookups and arithmetic; the
        # host handoff must produce builtin ints, not numpy scalars.
        got = group_by(np.array([4, 4], dtype=np.int64))
        (key,) = got
        assert type(key) is int


class TestSequfMaskFold:
    """The A/C merge fold: no per-round concatenate, identical output."""

    def test_no_concatenate_outside_drain(self, monkeypatch):
        import repro.core.fast as fast_mod

        concat_calls = 0
        drain_calls = 0
        real_concat = np.concatenate
        real_drain = fast_mod._drain_local

        def counting_concat(*args, **kwargs):
            nonlocal concat_calls
            concat_calls += 1
            return real_concat(*args, **kwargs)

        def counting_drain(*args, **kwargs):
            nonlocal drain_calls
            drain_calls += 1
            return real_drain(*args, **kwargs)

        tree = make_tree("random", 600, seed=11)
        monkeypatch.setattr(np, "concatenate", counting_concat)
        monkeypatch.setattr(fast_mod, "_drain_local", counting_drain)
        fast_mod.sequf_fast(tree)
        # The only concatenate left lives in the scalar residue drain
        # (one call per drained window); the merge rounds contribute none.
        assert concat_calls == drain_calls

    @pytest.mark.parametrize(
        ("kind", "n", "seed"),
        [
            ("path", 512, 0),  # monotone chain: every round is C-edge heavy
            ("caterpillar", 400, 0),
            ("star", 300, 0),
            ("random", 3000, 5),
            ("random", 3000, 6),
            ("binary", 1024, 0),
        ],
    )
    def test_bit_identity_with_reference(self, kind, n, seed):
        from repro.core.fast import sequf_fast
        from repro.core.sequf import sequf

        tree = make_tree(kind, n, seed=seed)
        assert np.array_equal(sequf_fast(tree), sequf(tree))

    def test_bit_identity_under_weight_permutations(self):
        from repro.core.fast import sequf_fast
        from repro.core.sequf import sequf

        rng = np.random.default_rng(17)
        base = make_tree("random", 500, seed=2)
        for _ in range(5):
            tree = base.with_weights(rng.permutation(base.m).astype(np.float64))
            assert np.array_equal(sequf_fast(tree), sequf(tree))


class TestKernelDtypePins:
    """Output dtypes of the fast kernels are part of the contract."""

    @pytest.mark.parametrize("kind", ["path", "random", "caterpillar"])
    def test_fast_kernels_return_int64(self, kind):
        from conftest import TWINNED
        from repro.core.api import resolve_algorithm

        tree = make_tree(kind, 128, seed=3)
        for name in TWINNED:
            out = resolve_algorithm(name, "array")(tree)
            assert out.dtype == np.int64, f"{name} returned {out.dtype}"

    def test_build_rc_tree_fast_int64_internals(self):
        from repro.contraction.fast import build_rc_tree_fast

        tree = make_tree("random", 128, seed=4)
        rc = build_rc_tree_fast(tree, seed=0)
        parents = np.asarray(rc.parent)
        assert parents.dtype == np.int64


class TestHeapPoolSlabPins:
    def test_slab_typecodes(self):
        from repro.structures.heap_pool import HeapPool

        pool = HeapPool(4)
        for slab in (pool.key, pool.item, pool.degree, pool.child, pool.sibling):
            assert slab.typecode == "i"

    def test_contract_slabs_match_reality(self):
        from repro.checkers.contracts import get_contract
        from repro.structures.heap_pool import HeapPool

        contract = get_contract(HeapPool.insert)
        for name in ("self.key", "self.item", "self.degree", "self.child", "self.sibling"):
            assert contract.dtypes[name] == ("i",)
