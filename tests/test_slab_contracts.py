"""Tests for the runtime @slab_contract layer (repro.checkers.contracts)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.checkers.contracts import (
    REGISTRY,
    SlabContract,
    checked,
    contracts_enabled,
    get_contract,
    slab_contract,
)
from repro.errors import SlabContractError

SRC = str(Path(__file__).parent.parent / "src")


class TestZeroCostMode:
    """With REPRO_SLAB_CONTRACTS unset, decoration must not wrap."""

    def test_disabled_in_test_environment(self):
        assert not contracts_enabled()

    def test_decorator_returns_function_unchanged(self):
        def kernel(xs):
            return xs

        decorated = slab_contract(dtypes={"xs": "int64"})(kernel)
        assert decorated is kernel  # genuinely zero call-time cost

    def test_metadata_attached_and_registered(self):
        @slab_contract(dtypes={"xs": "int64"}, writes=("xs",), returns="int64")
        def kernel_meta(xs):
            return xs

        contract = get_contract(kernel_meta)
        assert isinstance(contract, SlabContract)
        assert contract.dtypes == {"xs": ("int64",)}
        assert contract.writes == ("xs",)
        assert contract.returns == ("int64",)
        assert REGISTRY[contract.name] is contract
        assert get_contract(contract.name) is contract

    def test_unknown_parameter_fails_at_decoration(self):
        with pytest.raises(SlabContractError, match="no parameter 'ys'"):
            @slab_contract(dtypes={"ys": "int64"})
            def kernel(xs):
                return xs

    def test_dotted_head_must_be_a_parameter(self):
        with pytest.raises(SlabContractError, match="no parameter 'tree'"):
            @slab_contract(dtypes={"tree.edges": "int64"})
            def kernel(xs):
                return xs


class TestCheckedMode:
    def _kernel(self):
        @slab_contract(
            dtypes={"xs": "int64", "scale": "int"},
            contiguous=("xs",),
            returns="int64",
        )
        def kernel(xs, scale=1):
            return xs * scale

        return checked(kernel)

    def test_valid_call_passes_through(self):
        kernel = self._kernel()
        xs = np.arange(4, dtype=np.int64)
        assert np.array_equal(kernel(xs, 2), xs * 2)

    def test_dtype_mismatch_raises(self):
        kernel = self._kernel()
        with pytest.raises(SlabContractError, match="dtype 'int32'"):
            kernel(np.arange(4, dtype=np.int32))

    def test_scalar_kind_mismatch_raises(self):
        kernel = self._kernel()
        with pytest.raises(SlabContractError, match="'scale'"):
            kernel(np.arange(4, dtype=np.int64), scale=1.5)

    def test_non_contiguous_raises(self):
        kernel = self._kernel()
        strided = np.arange(8, dtype=np.int64)[::2]
        with pytest.raises(SlabContractError, match="C-contiguous"):
            kernel(strided)

    def test_return_dtype_drift_raises(self):
        @slab_contract(dtypes={"xs": "int64"}, returns="int64")
        def drifting(xs):
            return xs.astype(np.float64)

        with pytest.raises(SlabContractError, match="<return>"):
            checked(drifting)(np.arange(4, dtype=np.int64))

    def test_none_argument_skipped(self):
        @slab_contract(dtypes={"xs": "int64"})
        def optional(xs=None):
            return xs

        assert checked(optional)() is None
        assert checked(optional)(None) is None

    def test_typecode_check_on_array_array(self):
        from array import array

        @slab_contract(dtypes={"slab": "i"})
        def takes_slab(slab):
            return len(slab)

        assert checked(takes_slab)(array("i", [1, 2])) == 2
        with pytest.raises(SlabContractError, match="'q'"):
            checked(takes_slab)(array("q", [1, 2]))

    def test_dotted_resolution(self):
        class Box:
            def __init__(self):
                self.payload = np.zeros(3, dtype=np.int64)

        @slab_contract(dtypes={"box.payload": "int64"})
        def takes_box(box):
            return box.payload.sum()

        assert checked(takes_box)(Box()) == 0

        class BadBox:
            pass

        with pytest.raises(SlabContractError, match="attribute path"):
            checked(takes_box)(BadBox())

    def test_undeclared_write_is_blocked(self):
        @slab_contract(dtypes={"src": "int64", "dst": "int64"}, writes=("dst",))
        def scribbles_on_src(src, dst):
            src[0] = 99  # undeclared!
            dst[0] = 1

        src = np.zeros(2, dtype=np.int64)
        dst = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="read-only"):
            checked(scribbles_on_src)(src, dst)
        # The lock is restored even after the failure.
        assert src.flags.writeable

    def test_declared_write_succeeds_and_lock_restored(self):
        @slab_contract(dtypes={"src": "int64", "dst": "int64"}, writes=("dst",))
        def well_behaved(src, dst):
            dst[0] = int(src[0]) + 1

        src = np.ones(2, dtype=np.int64)
        dst = np.zeros(2, dtype=np.int64)
        checked(well_behaved)(src, dst)
        assert dst[0] == 2
        assert src.flags.writeable

    def test_checked_is_idempotent(self):
        kernel = self._kernel()
        assert checked(kernel) is kernel

    def test_checked_requires_a_contract(self):
        def bare(xs):
            return xs

        with pytest.raises(SlabContractError, match="no @slab_contract"):
            checked(bare)


class TestCheckedKernels:
    """The shipped kernels stay bit-identical under checking."""

    def test_heap_pool_checked_methods(self):
        from repro.structures.heap_pool import HeapPool

        pool = HeapPool(8)
        insert = checked(HeapPool.insert)
        find_min = checked(HeapPool.find_min)
        h = insert(pool, -1, 5, 0)
        h = insert(pool, h, 3, 1)
        assert find_min(pool, h) == (3, 1)


class TestEnabledAtImport:
    def test_env_flag_wraps_at_decoration(self):
        code = (
            "from repro.core.rctt import rctt\n"
            "from repro.structures.heap_pool import HeapPool\n"
            "import repro.checkers.contracts as c\n"
            "assert c.contracts_enabled()\n"
            "assert getattr(rctt, '__slab_contract_checked__', False)\n"
            "assert getattr(HeapPool.meld, '__slab_contract_checked__', False)\n"
            "import numpy as np\n"
            "from repro.trees.generators import random_tree\n"
            "from repro.core.sequf import sequf\n"
            "t = random_tree(40, seed=1)\n"
            "assert np.array_equal(rctt(t), sequf(t))\n"
        )
        env = dict(os.environ, REPRO_SLAB_CONTRACTS="1", PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_env_flag_off_means_unwrapped(self):
        from repro.core.rctt import rctt

        assert not getattr(rctt, "__slab_contract_checked__", False)
