"""Tests for the adversarial-interleaving sanitizer (repro.runtime.interleave)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.interleave import (
    HostileSchedule,
    current,
    hostile_schedule,
    maybe_delay,
)

SRC = str(Path(__file__).parent.parent / "src")


class TestHostileSchedule:
    def test_permutation_is_seed_deterministic(self):
        a = HostileSchedule(7)
        b = HostileSchedule(7)
        seq_a = [a.permutation(n) for n in (5, 5, 9, 2)]
        seq_b = [b.permutation(n) for n in (5, 5, 9, 2)]
        assert seq_a == seq_b
        for perm, n in zip(seq_a, (5, 5, 9, 2)):
            assert sorted(perm) == list(range(n))

    def test_different_seeds_differ(self):
        perms = {tuple(HostileSchedule(s).permutation(8)) for s in range(16)}
        assert len(perms) > 1

    def test_trivial_permutations(self):
        sched = HostileSchedule(0)
        assert sched.permutation(0) == []
        assert sched.permutation(1) == [0]

    def test_delay_bounds(self):
        sched = HostileSchedule(3)
        draws = [sched.draw_delay() for _ in range(200)]
        assert all(0.0 <= d <= 50e-6 for d in draws)
        assert any(d > 0.0 for d in draws)
        assert any(d == 0.0 for d in draws)

    def test_delays_disabled(self):
        sched = HostileSchedule(3, delays=False)
        assert all(sched.draw_delay() == 0.0 for _ in range(50))


class TestActivation:
    def test_inactive_by_default(self):
        assert current() is None
        maybe_delay("noop outside any schedule")  # must not raise

    def test_scoped_activation_and_nesting(self):
        with hostile_schedule(1) as outer:
            assert current() is outer
            with hostile_schedule(2) as inner:
                assert current() is inner  # innermost wins
            assert current() is outer
        assert current() is None

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with hostile_schedule(5):
                raise RuntimeError("boom")
        assert current() is None

    def test_env_flag_activates_process_wide(self):
        code = (
            "from repro.runtime import interleave\n"
            "assert interleave.current().seed == 123\n"
        )
        env = dict(os.environ, REPRO_HOSTILE_SCHEDULE="123", PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_env_flag_garbage_ignored(self):
        code = (
            "from repro.runtime import interleave\n"
            "assert interleave.current() is None\n"
        )
        env = dict(os.environ, REPRO_HOSTILE_SCHEDULE="not-a-seed", PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestSchedulerUnderHostileSchedule:
    def _tasks(self, log):
        from repro.runtime.cost_model import WorkDepth

        def make(i):
            def task():
                log.append(i)
                return i * 10, WorkDepth(1.0, 1.0)

            return task

        return [make(i) for i in range(8)]

    def test_round_is_hostile_permuted_results_in_task_order(self):
        from repro.runtime.scheduler import Scheduler

        log: list[int] = []
        sched = Scheduler()
        with hostile_schedule(13):
            values = sched.run_round(self._tasks(log))
        assert values == [i * 10 for i in range(8)]
        assert sorted(log) == list(range(8))
        assert sched.last_order is not None
        assert list(sched.last_order) == log

    def test_explicit_shuffle_takes_precedence(self):
        from repro.runtime.scheduler import Scheduler

        log: list[int] = []
        sched = Scheduler(shuffle=True, seed=0)
        with hostile_schedule(13):
            sched.run_round(self._tasks(log))
        # The seeded shuffle, not the hostile schedule, decides the order.
        log2: list[int] = []
        sched2 = Scheduler(shuffle=True, seed=0)
        sched2.run_round(self._tasks(log2))
        assert log == log2


class TestThreadedParUFUnderHostileSchedule:
    def test_bit_identical_with_injected_delays(self):
        from repro.core.paruf_threaded import paruf_threaded
        from repro.core.sequf import sequf
        from repro.trees.generators import caterpillar

        tree = caterpillar(20)
        want = sequf(tree)
        for seed in range(4):
            with hostile_schedule(seed):
                got = paruf_threaded(tree, num_threads=4)
            assert np.array_equal(got, want)

    def test_worker_crash_propagates(self, monkeypatch):
        import importlib

        from repro.trees.generators import path_tree

        mod = importlib.import_module("repro.core.paruf_threaded")

        class ExplodingUF:
            def __init__(self, n):
                pass

            def find(self, v):
                raise ValueError("injected UF failure")

            def union(self, a, b):  # pragma: no cover - find raises first
                raise ValueError("injected UF failure")

        monkeypatch.setattr(mod, "UnionFind", ExplodingUF)
        with pytest.raises(ValueError, match="injected UF failure"):
            mod.paruf_threaded(path_tree(12), num_threads=3)
