"""Pinned regressions for the slab-discipline sweep over the array backends.

Each test here pins a fix that the RPR2xx pass forced: the mask-fold
that removed the per-round ``np.concatenate`` from ``sequf_fast``, and
the dtype discipline of the fast kernels and ``HeapPool`` slabs.
Bit-identity against the reference implementations is asserted
alongside each behavioral pin.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_tree


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
