"""Shared benchmark machinery: timed, instrumented algorithm runs.

``run_algorithm`` executes one dendrogram algorithm with a fresh
:class:`~repro.runtime.cost_model.CostTracker` inside a
:func:`~repro.runtime.instrumentation.recording` block, measuring wall
time per phase.
``simulated_time`` converts the run into a Brent's-law time at P
processors, anchored at the measured single-thread wall time (DESIGN.md
Section 1 explains why this substitution preserves the paper's
experimental shape on a machine without shared-memory parallelism).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.api import ALGORITHMS
from repro.runtime.brent import calibrated_times, time_scale
from repro.runtime.cost_model import CostTracker
from repro.runtime.instrumentation import recording
from repro.trees.wtree import WeightedTree

__all__ = [
    "AlgoRun",
    "run_algorithm",
    "simulated_time",
    "format_table",
    "KernelResult",
    "bench_kernel",
    "calibrate",
]


@dataclass
class AlgoRun:
    """One instrumented algorithm execution."""

    algorithm: str
    n: int
    wall_seconds: float
    work: float
    depth: float
    phases: dict[str, float] = field(default_factory=dict)
    phase_costs: dict[str, object] = field(default_factory=dict)
    parents: np.ndarray | None = None

    @property
    def parallelism(self) -> float:
        """Average available parallelism ``W / D``."""
        return self.work / self.depth if self.depth else float("inf")


def run_algorithm(
    algorithm: str,
    tree: WeightedTree,
    keep_parents: bool = False,
    **options,
) -> AlgoRun:
    """Run ``algorithm`` on ``tree`` with full instrumentation."""
    fn = ALGORITHMS[algorithm]
    tracker = CostTracker()
    with recording(tracker) as rec:
        start = time.perf_counter()
        parents = fn(tree, tracker=tracker, **options)
        wall = time.perf_counter() - start
    return AlgoRun(
        algorithm=algorithm,
        n=tree.n,
        wall_seconds=wall,
        work=tracker.work,
        depth=tracker.depth,
        phases=rec.phases,
        phase_costs=rec.phase_costs,
        parents=parents if keep_parents else None,
    )


def simulated_time(run: AlgoRun, p: int) -> float:
    """Simulated wall time of ``run`` on ``p`` processors (seconds).

    Each phase's measured wall time scales by its own Brent's-law factor
    :func:`repro.runtime.brent.time_scale` -- SeqUF's parallel sort speeds
    up while its sequential merge loop does not, matching the paper's
    observed per-phase behaviour.  Wall time in phases with no charged work
    (or outside any phase) is treated as perfectly sequential.
    """
    if not run.phase_costs:
        return calibrated_times(run.wall_seconds, run.work, run.depth, [p])[0]
    total = 0.0
    covered = 0.0
    for cost in run.phase_costs.values():
        covered += cost.seconds
        total += cost.seconds * time_scale(cost.work, cost.depth, p)
    total += max(0.0, run.wall_seconds - covered)  # uninstrumented residue
    return total


def format_table(headers: list[str], rows: list[list[str]], title: str | None = None) -> str:
    """Plain-text aligned table (the harnesses' printable output)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "  "
    lines.append(sep.join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep.join("-" * w for w in widths))
    for row in rows:
        lines.append(sep.join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class KernelResult:
    """Timing + accounting for one perf-regression kernel."""

    kernel: str
    size: int
    repeats: int
    min_s: float
    median_s: float
    p90_s: float
    instrumented_s: float
    work: float
    depth: float

    @property
    def speedup(self) -> float:
        """Instrumented-over-fast wall ratio: what the fast path buys.

        Computed from the per-path minima -- the least noise-contaminated
        samples -- so the ratio reflects code, not scheduler jitter.
        """
        return self.instrumented_s / self.min_s if self.min_s > 0 else float("inf")


def _percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted samples (q in [0, 1])."""
    idx = min(len(sorted_samples) - 1, max(0, round(q * (len(sorted_samples) - 1))))
    return sorted_samples[idx]


def bench_kernel(kernel, repeats: int = 5, quick: bool = False) -> KernelResult:
    """Time one kernel: fast-path wall stats + instrumented work/depth.

    The fast path (``tracker=None``, no recorder) runs ``repeats`` times
    for min/median/p90 wall seconds -- the minimum is the regression-gate
    statistic (least contaminated by scheduler jitter), median/p90 describe
    the observed spread.  The instrumented path (enabled
    :class:`CostTracker`) runs ``min(3, repeats)`` times; its minimum wall
    time is the speedup reference, and its work/depth totals -- identical
    across runs by determinism -- are recorded for the comparison gate.
    One warmup run is discarded.

    Array-backend kernels (``kernel.ref_run`` set) replace the
    instrumented pass with uninstrumented runs of the reference twin, so
    the ``speedup`` column is the honest reference/array wall ratio on
    the same input.  Work/depth are recorded as ``0.0``: the accounting
    belongs to the reference kernel entry, and an instrumented run of an
    array backend would delegate to the reference anyway.
    """
    payload = kernel.input_for(quick)
    kernel.run(payload, None)  # warmup (also JITs numpy caches, imports)
    samples: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel.run(payload, None)
        samples.append(time.perf_counter() - start)
    samples.sort()

    inst_samples: list[float] = []
    work = depth = 0.0
    if kernel.ref_run is not None:
        for _ in range(min(3, repeats)):
            start = time.perf_counter()
            kernel.ref_run(payload, None)
            inst_samples.append(time.perf_counter() - start)
    else:
        for _ in range(min(3, repeats)):
            tracker = CostTracker()
            start = time.perf_counter()
            kernel.run(payload, tracker)
            inst_samples.append(time.perf_counter() - start)
            work, depth = tracker.work, tracker.depth
    inst_samples.sort()

    return KernelResult(
        kernel=kernel.name,
        size=kernel.quick_size if quick else kernel.size,
        repeats=repeats,
        min_s=samples[0],
        median_s=_percentile(samples, 0.5),
        p90_s=_percentile(samples, 0.9),
        instrumented_s=inst_samples[0],
        work=work,
        depth=depth,
    )


def calibrate(scale: int = 400_000, rounds: int = 3) -> float:
    """Machine-speed probe: seconds for a fixed numpy workload (median).

    Stored in every ``BENCH_*.json``; :func:`repro.bench.baseline.compare`
    scales the baseline's wall times by the calibration ratio so the 15%
    regression gate tolerates machine-speed differences between the
    machine that committed the baseline and the one running the gate.
    """
    rng = np.random.default_rng(0)
    data = rng.random(scale)
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        order = np.argsort(data, kind="stable")
        acc = np.cumsum(data[order])
        float(acc[-1])
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def fmt_seconds(s: float) -> str:
    """Compact seconds formatting used across the harness tables."""
    if s >= 100:
        return f"{s:.0f}"
    if s >= 1:
        return f"{s:.2f}"
    return f"{s:.3f}"
