"""Pinned regressions for the slab-discipline sweep over the array backends.

Each test here pins a fix that the RPR2xx pass forced: the dtype
discipline of the fast kernels and ``HeapPool`` slabs.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_tree


class TestKernelDtypePins:
    """Output dtypes of the fast kernels are part of the contract."""

    @pytest.mark.parametrize("kind", ["path", "random", "caterpillar"])
    def test_fast_kernels_return_int64(self, kind):
        from conftest import ARRAY_BACKED
        from repro.core.api import resolve_algorithm

        tree = make_tree(kind, 128, seed=3)
        for name in ARRAY_BACKED:
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
