"""Work-depth cost model, Brent simulation, phase spans, scheduler."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.runtime.brent import (
    brent_time,
    calibrated_times,
    geomean_speedup,
    self_speedup,
    speedup_curve,
    time_scale,
)
from repro.runtime.cost_model import (
    CostTracker,
    WorkDepth,
    combine_parallel,
    comparison_sort_cost,
    log_cost,
)
from repro.runtime.instrumentation import recording, span
from repro.runtime.scheduler import Scheduler


class TestWorkDepth:
    def test_series_composition(self):
        c = WorkDepth(3, 2).then(WorkDepth(5, 1))
        assert c == WorkDepth(8, 3)
        assert WorkDepth(1, 1) + WorkDepth(2, 2) == WorkDepth(3, 3)

    def test_parallel_composition(self):
        c = combine_parallel([WorkDepth(4, 2), WorkDepth(6, 5), WorkDepth(1, 1)])
        assert c.work == 11
        assert c.depth == 5 + 2  # max depth + ceil(log2 3)

    def test_parallel_empty(self):
        assert combine_parallel([]) == WorkDepth.zero()

    def test_comparison_sort_cost_shape(self):
        c = comparison_sort_cost(1024)
        assert c.work == 1024 * 10
        assert c.depth == 100

    def test_seq_helper(self):
        assert WorkDepth.seq(7) == WorkDepth(7, 7)

    def test_log_cost(self):
        assert log_cost(1) == 1.0
        assert log_cost(8) == 4.0


class TestCostTracker:
    def test_sequential_defaults_depth_to_work(self):
        t = CostTracker()
        t.sequential(10)
        assert (t.work, t.depth) == (10, 10)
        t.sequential(4, depth=1)
        assert (t.work, t.depth) == (14, 11)

    def test_parallel_round(self):
        t = CostTracker()
        with t.parallel_round() as rnd:
            rnd.task(5)
            rnd.task(3, depth=2)
            rnd.task(8, depth=8)
        assert t.work == 16
        assert t.depth == 8 + math.ceil(math.log2(3))

    def test_empty_round_is_free(self):
        t = CostTracker()
        with t.parallel_round():
            pass
        assert (t.work, t.depth) == (0, 0)

    def test_reset_inside_round_rejected(self):
        t = CostTracker()
        with pytest.raises(SchedulerError):
            with t.parallel_round():
                t.reset()

    def test_exception_discards_round(self):
        t = CostTracker()
        with pytest.raises(RuntimeError):
            with t.parallel_round() as rnd:
                rnd.task(5)
                raise RuntimeError("boom")
        assert t.work == 0

    def test_snapshot(self):
        t = CostTracker()
        t.sequential(3)
        assert t.snapshot() == WorkDepth(3, 3)


class TestBrent:
    def test_brent_time_bound(self):
        assert brent_time(100, 10, 1) == 110
        assert brent_time(100, 10, 10) == 20

    def test_time_scale_sequential_phase_gains_nothing(self):
        assert time_scale(100, 100, 192) == 1.0

    def test_time_scale_parallel_phase(self):
        assert time_scale(1920, 1, 192) == pytest.approx(11 / 1920)

    def test_time_scale_zero_work(self):
        assert time_scale(0, 0, 8) == 1.0

    def test_bad_processors(self):
        with pytest.raises(ValueError):
            brent_time(1, 1, 0)
        with pytest.raises(ValueError):
            time_scale(1, 1, 0)

    def test_speedup_curve_monotone(self):
        curve = speedup_curve(10_000, 10, [1, 2, 4, 8, 192])
        assert curve[0] == 1.0
        assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_self_speedup_capped_by_parallelism(self):
        # speedup can never exceed W/D
        assert self_speedup(1000, 100, 10**6) <= 1000 / 100 + 1e-9

    def test_calibrated_times_anchor(self):
        times = calibrated_times(2.0, 1000, 10, [1, 10])
        assert times[0] == pytest.approx(2.0)
        assert times[1] < times[0]

    def test_calibrated_negative_rejected(self):
        with pytest.raises(ValueError):
            calibrated_times(-1.0, 10, 1, [1])

    def test_calibrated_t1_convention_exact(self):
        # The documented anchoring convention is T(1) = W exactly: the
        # one-processor simulated time is the measured t1, not scaled by
        # any (W + D)-style denominator.
        for work, depth in [(1000.0, 10.0), (7.0, 7.0), (123.0, 1.0)]:
            assert calibrated_times(3.5, work, depth, [1]) == [3.5]

    def test_geomean_speedup(self):
        assert geomean_speedup([2.0, 8.0]) == pytest.approx(4.0)
        assert math.isnan(geomean_speedup([]))


class TestPhaseTimer:
    """Phase timing: ``span`` blocks record into the innermost ``recording``."""

    def test_records_phases_in_order(self):
        with recording() as rec:
            with span("a"):
                pass
            with span("b"):
                pass
            with span("a"):
                pass
        assert list(rec.phases) == ["a", "b"]
        assert all(seconds >= 0 for seconds in rec.phases.values())

    def test_bound_tracker_splits_costs(self):
        tracker = CostTracker()
        with recording(tracker) as rec:
            with span("p1"):
                tracker.sequential(10)
            tracker.sequential(1000)  # outside every span: in no phase
            with span("p2"):
                tracker.sequential(30, depth=3)
        costs = rec.phase_costs
        assert (costs["p1"].work, costs["p1"].depth) == (10, 10)
        assert (costs["p2"].work, costs["p2"].depth) == (30, 3)

    def test_exception_still_recorded(self):
        with recording() as rec:
            with pytest.raises(RuntimeError):
                with span("broken"):
                    raise RuntimeError
        assert "broken" in rec.phases

    def test_span_outside_recording_is_a_noop(self):
        with span("nowhere"):
            pass
        with recording() as rec:
            pass
        assert rec.phases == {}

    def test_innermost_recording_wins(self):
        with recording() as outer:
            with span("a"):
                pass
            with recording() as inner:
                with span("b"):
                    pass
            with span("c"):
                pass
        assert list(outer.phases) == ["a", "c"]
        assert list(inner.phases) == ["b"]


class TestScheduler:
    def test_round_results_in_task_order(self):
        sched = Scheduler(shuffle=True, seed=0)
        tasks = [lambda i=i: (i * 2, WorkDepth(1, 1)) for i in range(10)]
        assert sched.run_round(tasks) == [i * 2 for i in range(10)]
        assert sched.rounds_run == 1

    def test_costs_charged_as_parallel(self):
        tracker = CostTracker()
        sched = Scheduler(tracker=tracker)
        sched.run_round([lambda: (None, WorkDepth(4, 4)), lambda: (None, WorkDepth(2, 2))])
        assert tracker.work == 6
        assert tracker.depth == 4 + 1

    def test_empty_round(self):
        assert Scheduler().run_round([]) == []

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_shuffle_does_not_change_results(self, seed):
        sched = Scheduler(shuffle=True, seed=seed)
        tasks = [lambda i=i: (i, WorkDepth(1, 1)) for i in range(8)]
        assert sched.run_round(tasks) == list(range(8))
