"""Tests for the @owns ownership-window layer (repro.checkers.ownership)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.checkers.ownership import (
    OWNS_REGISTRY,
    OwnsDecl,
    WindowSpec,
    checked_owns,
    get_owns,
    owns,
    ownership_enabled,
)
from repro.errors import OwnershipError

SRC = str(Path(__file__).parent.parent / "src")


class TestZeroCostMode:
    """With REPRO_OWNERSHIP_CHECKS unset, decoration must not wrap."""

    def test_disabled_in_test_environment(self):
        assert not ownership_enabled()

    def test_decorator_returns_function_unchanged(self):
        def kernel(parents, lo, hi):
            parents[lo:hi] = 0

        decorated = owns("parents[lo:hi]")(kernel)
        assert decorated is kernel

    def test_metadata_attached_and_registered(self):
        @owns("parents[lo:hi]", "status[:]")
        def kernel_meta(parents, status, lo, hi):
            parents[lo:hi] = 0

        decl = get_owns(kernel_meta)
        assert isinstance(decl, OwnsDecl)
        assert decl.windows == (
            WindowSpec("parents", "lo", "hi"),
            WindowSpec("status", None, None),
        )
        assert OWNS_REGISTRY[decl.name] is decl
        assert get_owns(decl.name) is decl
        assert decl.describe() == "parents[lo:hi], status[:]"

    def test_unknown_name_fails_at_decoration(self):
        with pytest.raises(OwnershipError, match="neither a parameter nor"):
            @owns("missing[lo:hi]")
            def kernel(lo, hi):
                pass

    def test_unknown_bound_fails_at_decoration(self):
        with pytest.raises(OwnershipError, match="'end'"):
            @owns("parents[lo:end]")
            def kernel(parents, lo):
                pass

    def test_bare_index_rejected(self):
        with pytest.raises(OwnershipError, match="bare index"):
            @owns("parents[i]")
            def kernel(parents, i):
                pass

    def test_malformed_spec_rejected(self):
        with pytest.raises(OwnershipError, match="malformed"):
            @owns("parents[lo:hi")
            def kernel(parents, lo, hi):
                pass

    def test_requires_at_least_one_spec(self):
        with pytest.raises(OwnershipError, match="at least one"):
            owns()

    def test_closure_variable_is_a_valid_target(self):
        out = np.zeros(4, dtype=np.float64)

        @owns("out[lo:hi]")
        def fill(lo, hi):
            out[lo:hi] = 1.0

        assert get_owns(fill) is not None


class TestCheckedMode:
    def test_in_window_write_passes(self):
        parents = np.arange(8, dtype=np.int64)

        @owns("parents[lo:hi]")
        def fill(parents, lo, hi):
            parents[lo:hi] = -1
            return hi - lo

        assert checked_owns(fill)(parents, 2, 5) == 3
        assert np.array_equal(parents[2:5], [-1, -1, -1])

    def test_out_of_window_write_raises(self):
        parents = np.arange(8, dtype=np.int64)

        @owns("parents[lo:hi]")
        def scribble(parents, lo, hi):
            parents[lo:hi] = -1
            parents[0] = 99  # outside [2, 5)

        with pytest.raises(OwnershipError, match="outside its declared"):
            checked_owns(scribble)(parents, 2, 5)

    def test_closure_and_offset_bounds(self):
        status = np.zeros(8, dtype=np.int64)
        cur = 3

        @owns("status[cur:cur+1]")
        def claim():
            status[cur] = -1

        checked_owns(claim)()
        assert status[3] == -1

        @owns("status[cur:cur+1]")
        def overreach():
            status[cur] = -1
            status[cur + 1] = -1

        with pytest.raises(OwnershipError, match="outside its declared"):
            checked_owns(overreach)()

    def test_non_ndarray_slab_rejected(self):
        counts = [0, 0, 0, 0]

        @owns("counts[lo:hi]")
        def bump(lo, hi):
            for i in range(lo, hi):
                counts[i] += 1

        with pytest.raises(OwnershipError, match="not an ndarray"):
            checked_owns(bump)(1, 3)
        assert counts == [0, 0, 0, 0]

    def test_none_target_skipped(self):
        @owns("maybe[lo:hi]")
        def kernel(maybe, lo, hi):
            return "ran"

        assert checked_owns(kernel)(None, 0, 1) == "ran"

    def test_inverted_window_raises(self):
        parents = np.arange(4, dtype=np.int64)

        @owns("parents[hi:lo]")
        def swapped(parents, lo, hi):
            pass

        with pytest.raises(OwnershipError, match="inverted"):
            checked_owns(swapped)(parents, 1, 3)

    def test_checked_is_idempotent(self):
        @owns("xs[:]")
        def kernel(xs):
            pass

        wrapped = checked_owns(kernel)
        assert checked_owns(wrapped) is wrapped

    def test_checked_requires_a_declaration(self):
        def bare(xs):
            pass

        with pytest.raises(OwnershipError, match="no @owns"):
            checked_owns(bare)

    def test_declared_window_reported_to_race_detector(self):
        from repro.checkers.access import RoundRecorder, install, uninstall
        from repro.checkers.races import find_conflicts
        from repro.errors import RaceConditionError

        parents = np.arange(16, dtype=np.int64)

        @owns("parents[lo:hi]")
        def fill(lo, hi):
            parents[lo:hi] = 0

        fill = checked_owns(fill)
        # Disjoint windows: clean round.
        recorder = RoundRecorder(where="ownership round")
        install(recorder)
        try:
            recorder.begin_task(0)
            fill(0, 8)
            recorder.begin_task(1)
            fill(8, 16)
            recorder.end_task()
        finally:
            uninstall(recorder)
        assert find_conflicts(recorder.logs) == []

        # Overlapping declared windows: a race before any cell-level write.
        recorder = RoundRecorder(where="ownership round")
        install(recorder)
        try:
            recorder.begin_task(0)
            fill(0, 9)
            recorder.begin_task(1)
            fill(8, 16)
            recorder.end_task()
        finally:
            uninstall(recorder)
        conflicts = find_conflicts(recorder.logs)
        assert conflicts, "overlapping @owns windows must conflict"
        with pytest.raises(RaceConditionError):
            from repro.checkers.races import check_recorder

            check_recorder(recorder)


class TestEnabledAtImport:
    def test_env_flag_wraps_and_enforces(self):
        code = (
            "import numpy as np\n"
            "import repro.checkers.ownership as o\n"
            "assert o.ownership_enabled()\n"
            "from repro.errors import OwnershipError\n"
            "parents = np.arange(8, dtype=np.int64)\n"
            "@o.owns('parents[lo:hi]')\n"
            "def scribble(parents, lo, hi):\n"
            "    parents[0] = 99\n"
            "assert getattr(scribble, '__owns_checked__', False)\n"
            "try:\n"
            "    scribble(parents, 2, 5)\n"
            "except OwnershipError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('out-of-window write not caught')\n"
            "# The shipped kernels stay correct under enforcement.\n"
            "from repro.core.paruf_sync import paruf_sync\n"
            "from repro.core.sequf import sequf\n"
            "from repro.trees.generators import random_tree\n"
            "t = random_tree(40, seed=3)\n"
            "assert np.array_equal(paruf_sync(t), sequf(t))\n"
            "from repro.core.paruf_threaded import paruf_threaded\n"
            "assert np.array_equal(paruf_threaded(t, num_threads=4), sequf(t))\n"
        )
        env = dict(os.environ, REPRO_OWNERSHIP_CHECKS="1", PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_env_flag_off_means_unwrapped(self):
        from repro.core.paruf_sync import paruf_sync

        assert not getattr(paruf_sync, "__owns_checked__", False)
