"""Empirical complexity-fit gate: measured cost growth vs declared bounds.

The third layer of the cost-bound contract (after the ``@cost_bound``
declarations and the RPR1xx structural lint): actually *run* every
registered ``kind="algorithm"`` function over a size ladder, read the
charged work/depth off its :class:`~repro.runtime.cost_model.CostTracker`,
and reject any algorithm whose measured cost grows asymptotically faster
than its declaration.

Method
------
For each (algorithm, input family) and metric ``work``/``depth``, compute
the ratio ``measured / declared_bound(n, h)`` at every ladder size and fit
the least-squares slope of ``log(ratio)`` against ``log(n)``.  If the
declaration is correct (up to constants), the ratio is asymptotically flat
and the slope is ~0; a slope above :data:`DEFAULT_TOLERANCE` means the
measurement grows at least ``n^tolerance`` *faster* than declared -- e.g.
the ``O(n h)`` list-mode ablation of SLD-TreeContraction fitted against
the heap mode's declared ``O(n log h)`` shows slope ~1 on chain inputs.

Degenerate inputs are safe by construction: bound evaluation clamps every
``log`` to at least 1 (so ``n log h`` never divides by ``log(1) = 0``),
zero-cost measurements (e.g. ``n = 1``) are dropped, and a family with
fewer than :data:`MIN_POINTS` usable measurements is skipped -- reported,
not fitted, never failed.
"""

from __future__ import annotations

import importlib
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.checkers.bounds import CostBound, registered_bounds
from repro.datasets.ladders import DEFAULT_SIZES, FAMILY_BUILDERS
from repro.dendrogram.metrics import dendrogram_height
from repro.io import atomic_write
from repro.runtime.cost_model import CostTracker

__all__ = [
    "DEFAULT_TOLERANCE",
    "MIN_POINTS",
    "FAMILY_RESTRICTIONS",
    "FitPoint",
    "FitResult",
    "FitReport",
    "fit_slope",
    "fit_target",
    "run_fit",
]

#: Maximum admissible log-log slope of measured/declared cost ratios.
DEFAULT_TOLERANCE = 0.25

#: Minimum usable ladder points before a fit is attempted at all.
MIN_POINTS = 3

#: Registered algorithms that only accept certain input families.
FAMILY_RESTRICTIONS: dict[str, tuple[str, ...]] = {
    "repro.core.cartesian.sld_path": ("path",),
}


@dataclass(frozen=True)
class FitPoint:
    """One measurement: charged cost and evaluated bound at one input."""

    family: str
    n: int
    h: int
    work: float
    depth: float
    bound_work: float
    bound_depth: float


@dataclass(frozen=True)
class FitResult:
    """Fit verdict for one (target, family, metric) combination."""

    target: str
    family: str
    metric: str  #: ``"work"`` or ``"depth"``
    slope: float | None  #: ``None`` when skipped (too few points)
    tolerance: float
    passed: bool
    reason: str
    points: list[FitPoint] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "family": self.family,
            "metric": self.metric,
            "slope": self.slope,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "reason": self.reason,
            "points": [vars(p) | {} for p in self.points],
        }


@dataclass
class FitReport:
    """All fit results of one run, JSON-serializable for CI artifacts."""

    results: list[FitResult]
    sizes: tuple[int, ...] = DEFAULT_SIZES
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[FitResult]:
        return [r for r in self.results if not r.passed]

    def to_dict(self) -> dict[str, Any]:
        return {
            "sizes": list(self.sizes),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
        }

    def write_json(self, path: str | Path) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(p) as fh:
            fh.write((json.dumps(self.to_dict(), indent=2) + "\n").encode("utf-8"))
        return p

    def summary(self) -> str:
        lines = []
        for r in self.results:
            mark = "ok  " if r.passed else "FAIL"
            slope = "  skip" if r.slope is None else f"{r.slope:+.3f}"
            lines.append(f"  {mark} {slope}  {r.target} [{r.family}/{r.metric}] {r.reason}")
        verdict = "PASSED" if self.passed else "FAILED"
        lines.append(f"bounds fit {verdict}: {len(self.results)} fits, {len(self.failures)} over bound")
        return "\n".join(lines)


def fit_slope(ns: Sequence[int], ratios: Sequence[float]) -> float:
    """Least-squares slope of ``log(ratio)`` against ``log(n)``."""
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.maximum(np.asarray(ratios, dtype=np.float64), 1e-12))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def _measure(
    fn: Callable[..., Any], bound: CostBound, family: str, n: int
) -> FitPoint:
    """Run ``fn`` on one ladder rung and evaluate the declared bound there."""
    tree = FAMILY_BUILDERS[family](n)
    tracker = CostTracker()
    result = fn(tree, tracker=tracker)
    h = 0
    if isinstance(result, np.ndarray) and result.ndim == 1 and result.shape[0] == tree.m:
        h = int(dendrogram_height(result, tree.ranks))
    env = {"n": float(tree.n), "m": float(max(tree.m, 1)), "h": float(max(h, 1))}
    return FitPoint(
        family=family,
        n=tree.n,
        h=h,
        work=float(tracker.work),
        depth=float(tracker.depth),
        bound_work=bound.evaluate_work(**env),
        bound_depth=bound.evaluate_depth(**env),
    )


def fit_target(
    fn: Callable[..., Any],
    bound: CostBound,
    *,
    target: str | None = None,
    families: Sequence[str] | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[FitResult]:
    """Fit one callable against one declared bound over the ladder.

    Exposed separately from :func:`run_fit` so tests can fit *mismatched*
    pairs -- e.g. the deliberately super-bound list-mode ablation against
    the heap mode's declaration -- and watch the gate reject them.
    """
    name = target if target is not None else bound.name
    if families is None:
        families = FAMILY_RESTRICTIONS.get(name, tuple(FAMILY_BUILDERS))
    results: list[FitResult] = []
    for family in families:
        points = [_measure(fn, bound, family, int(n)) for n in sizes]
        for metric in ("work", "depth"):
            usable = [p for p in points if getattr(p, metric) > 0.0]
            if len(usable) < MIN_POINTS:
                results.append(
                    FitResult(
                        name,
                        family,
                        metric,
                        None,
                        tolerance,
                        True,
                        f"skipped: {len(usable)} usable points < {MIN_POINTS}",
                        points,
                    )
                )
                continue
            ratios = [
                getattr(p, metric) / getattr(p, f"bound_{metric}") for p in usable
            ]
            slope = fit_slope([p.n for p in usable], ratios)
            if math.isnan(slope):
                results.append(
                    FitResult(name, family, metric, None, tolerance, True,
                              "skipped: degenerate fit", points)
                )
                continue
            passed = slope <= tolerance
            reason = (
                "within declared bound"
                if passed
                else f"measured {metric} grows ~n^{slope:.2f} beyond O({getattr(bound, metric).src})"
            )
            results.append(
                FitResult(name, family, metric, slope, tolerance, passed, reason, points)
            )
    return results


def _resolve(name: str) -> Callable[..., Any] | None:
    """Import the function behind a registry key (``module.qualname``)."""
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return None
        return obj
    return None


def _selected(key: str, targets: Sequence[str]) -> bool:
    return key in targets or key.rsplit(".", 1)[-1] in targets


def run_fit(
    targets: Sequence[str] | None = None,
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    families: Sequence[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> FitReport:
    """Fit every registered ``kind="algorithm"`` bound (or the named subset).

    ``targets`` accepts full registry keys or bare function names.
    """
    report = FitReport([], tuple(int(s) for s in sizes), tolerance)
    for key, bound in sorted(registered_bounds().items()):
        if bound.kind != "algorithm":
            continue
        if targets is not None and not _selected(key, targets):
            continue
        fn = _resolve(key)
        if fn is None:
            report.results.append(
                FitResult(key, "-", "work", None, tolerance, False,
                          "registered bound does not resolve to an importable function")
            )
            continue
        report.results.extend(
            fit_target(
                fn, bound, target=key, families=families, sizes=sizes, tolerance=tolerance
            )
        )
    return report
