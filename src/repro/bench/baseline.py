"""Schema-versioned benchmark baselines and the regression gate.

``BENCH_*.json`` files record one full run of the perf kernels (see
:mod:`repro.bench.kernels`): per-kernel median/p90 wall seconds, charged
work/depth, input size, and repeat count, plus a machine-speed
calibration probe.  The schema::

    {
      "schema": "repro-bench/1",
      "calibration_s": <seconds for the fixed numpy probe>,
      "quick": <bool>,
      "kernels": {
        "<name>": {
          "size": int, "repeats": int,
          "min_s": float, "median_s": float, "p90_s": float,
          "instrumented_s": float,
          "work": float, "depth": float
        }, ...
      }
    }

A file that is not valid JSON or does not match the schema raises
:class:`~repro.io.FormatError` naming the path (exit 2 from the CLI, a
usage error, not a regression).  Files are written through
:func:`repro.io.atomic_write`.

The gate (:func:`compare`) fails (exit 1 from the CLI) when any kernel's
calibration-normalized *minimum* wall time regresses more than
``tolerance`` (default 15%, plus a small absolute slack for scheduler
jitter) against the baseline, or when charged work/depth drift at all --
accounting is deterministic, so any drift is a real accounting change
that must come with a refreshed baseline.  The minimum, not the median,
is gated: on shared CI machines interference only ever adds time, so the
fastest observed sample is the most faithful estimate of the code's true
cost, while median/p90 are recorded to describe the spread.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.bench.harness import KernelResult
from repro.io import FormatError, atomic_write

__all__ = [
    "SCHEMA",
    "DEFAULT_TOLERANCE",
    "results_to_payload",
    "save_baseline",
    "load_baseline",
    "validate_payload",
    "compare",
]

SCHEMA = "repro-bench/1"

#: Default wall-time regression tolerance of the gate (fraction).
DEFAULT_TOLERANCE = 0.15

#: Kernels faster than this are pure noise at CI timer resolution; the
#: wall-time gate skips them (work/depth are still checked).
MIN_GATED_SECONDS = 1e-3

#: Absolute slack added on top of the relative tolerance (seconds).  On a
#: shared runner even best-of-N samples of a few-ms kernel carry this much
#: scheduler jitter; it is negligible against any real hot-path regression.
ABS_SLACK_SECONDS = 5e-3

_REQUIRED_KERNEL_KEYS = {
    "size": (int,),
    "repeats": (int,),
    "min_s": (int, float),
    "median_s": (int, float),
    "p90_s": (int, float),
    "instrumented_s": (int, float),
    "work": (int, float),
    "depth": (int, float),
}


def results_to_payload(
    results: list[KernelResult], calibration_s: float, quick: bool
) -> dict[str, Any]:
    """Assemble the schema-versioned JSON payload for ``results``."""
    return {
        "schema": SCHEMA,
        "calibration_s": calibration_s,
        "quick": quick,
        "kernels": {
            r.kernel: {
                "size": r.size,
                "repeats": r.repeats,
                "min_s": r.min_s,
                "median_s": r.median_s,
                "p90_s": r.p90_s,
                "instrumented_s": r.instrumented_s,
                "work": r.work,
                "depth": r.depth,
            }
            for r in results
        },
    }


def validate_payload(payload: Any, where: str = "payload") -> dict[str, Any]:
    """Check ``payload`` against the ``repro-bench/1`` schema; return it.

    Raises :class:`~repro.io.FormatError` naming ``where`` on any mismatch.
    """
    if not isinstance(payload, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise FormatError(f"{where}: schema {schema!r} is not {SCHEMA!r}")
    cal = payload.get("calibration_s")
    if not isinstance(cal, (int, float)) or not math.isfinite(cal) or cal <= 0:
        raise FormatError(f"{where}: calibration_s must be a positive number, got {cal!r}")
    kernels = payload.get("kernels")
    if not isinstance(kernels, dict) or not kernels:
        raise FormatError(f"{where}: kernels must be a non-empty object")
    for name, entry in kernels.items():
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: kernel {name!r} entry must be an object")
        for key, types in _REQUIRED_KERNEL_KEYS.items():
            value = entry.get(key)
            if not isinstance(value, types) or isinstance(value, bool):
                raise FormatError(
                    f"{where}: kernel {name!r} field {key!r} must be "
                    f"{'/'.join(t.__name__ for t in types)}, got {value!r}"
                )
            if isinstance(value, (int, float)) and not math.isfinite(float(value)):
                raise FormatError(f"{where}: kernel {name!r} field {key!r} is not finite")
    return payload


def save_baseline(path: str | Path, payload: dict[str, Any]) -> None:
    """Write a validated payload to ``path`` (pretty-printed, trailing \\n)."""
    validate_payload(payload, where=str(path))
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(p) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Load and schema-validate a ``BENCH_*.json`` file."""
    data = Path(path).read_bytes()
    try:
        payload = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    return validate_payload(payload, where=str(path))


def compare(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[bool, list[str]]:
    """Gate ``current`` against ``baseline``; return ``(ok, report lines)``.

    Wall-time check: a kernel regresses when its best-of-repeats minimum
    exceeds the baseline minimum -- scaled by the calibration ratio of the
    two machines -- by more than ``tolerance`` plus ``ABS_SLACK_SECONDS``.
    Kernels below ``MIN_GATED_SECONDS`` in both runs are reported but not
    gated (timer noise).

    Accounting check: charged work/depth must match the baseline exactly
    (same size input, deterministic charges); any drift fails the gate.

    Kernels present only on one side are reported but do not fail the
    gate -- adding a kernel must not require rewriting history, and a
    removed kernel's history simply ends.
    """
    ok = True
    lines: list[str] = []
    cal_ratio = float(current["calibration_s"]) / float(baseline["calibration_s"])
    lines.append(
        f"calibration: current {current['calibration_s']:.6f}s / "
        f"baseline {baseline['calibration_s']:.6f}s (ratio {cal_ratio:.3f})"
    )
    cur_kernels = current["kernels"]
    base_kernels = baseline["kernels"]
    for name in sorted(set(cur_kernels) | set(base_kernels)):
        if name not in base_kernels:
            lines.append(f"  {name}: NEW (no baseline entry; not gated)")
            continue
        if name not in cur_kernels:
            lines.append(f"  {name}: MISSING from current run (not gated)")
            continue
        cur = cur_kernels[name]
        base = base_kernels[name]
        if cur["size"] != base["size"]:
            lines.append(
                f"  {name}: size changed {base['size']} -> {cur['size']}; "
                "wall gate skipped, refresh the baseline"
            )
            continue
        drift = []
        if float(cur["work"]) != float(base["work"]):
            drift.append(f"work {base['work']:.0f} -> {cur['work']:.0f}")
        if float(cur["depth"]) != float(base["depth"]):
            drift.append(f"depth {base['depth']:.0f} -> {cur['depth']:.0f}")
        if drift:
            ok = False
            lines.append(f"  {name}: FAIL accounting drift ({', '.join(drift)})")
            continue
        normalized_base = float(base["min_s"]) * cal_ratio
        allowed = normalized_base * (1.0 + tolerance) + ABS_SLACK_SECONDS
        cur_min = float(cur["min_s"])
        rel = cur_min / normalized_base if normalized_base > 0 else float("inf")
        if cur_min < MIN_GATED_SECONDS and float(base["min_s"]) < MIN_GATED_SECONDS:
            lines.append(f"  {name}: ok (sub-millisecond, not gated; x{rel:.2f})")
        elif cur_min > allowed:
            ok = False
            lines.append(
                f"  {name}: FAIL wall regression x{rel:.2f} "
                f"(min {cur_min:.4f}s > allowed {allowed:.4f}s)"
            )
        else:
            lines.append(f"  {name}: ok (x{rel:.2f} of normalized baseline)")
    lines.append("gate: " + ("PASS" if ok else "FAIL"))
    return ok, lines
