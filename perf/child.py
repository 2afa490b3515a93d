"""One benchmark repeat in a fresh process.

Run by ``perf/run.py`` as ``python -m perf.child WORKLOAD WORKDIR PARAMS
VERIFY TRACE`` from the checkout root, with the program's sources on
``PYTHONPATH``.  Prints one JSON object on its stdout.

The order inside the child is fixed: imports and input loading (set-up),
the program's own set-up if the workload has one, the timed body, the
peak-RSS read, then the checks and the calibration probe, so neither of
the last two touches a measured number.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark (``VmHWM``) in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def probe_s() -> float:
    """A fixed calibration workload, best of three (informational only)."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 19)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(data)
        total = 0
        for i in range(100_000):
            total += i & 7
        best = min(best, time.perf_counter() - t0)
    return best


def main(name: str, workdir: str, params: str, verify: bool, traced: bool) -> dict[str, Any]:
    t_start = time.perf_counter()
    out: dict[str, Any] = {}
    attempted = failed = 0
    errors: list[str] = []
    rec = None
    try:
        # Set-up starts here: the program's modules are imported by these.
        import numpy as np

        from perf import trace
        from perf.workloads import WORKLOADS, Record

        rec = Record()
        workload, path, p = WORKLOADS[name], Path(workdir), json.loads(params)
        with np.load(path / "inputs.npz") as data:
            inputs = {key: data[key] for key in data.files}
        load_s = time.perf_counter() - t_start
        state = workload.setup(p, inputs, rec) if workload.setup else None
        construct = statistics.median(rec.construct_s) if rec.construct_s else 0.0
        out["setup_s"] = load_s + construct

        if traced:
            tracer = trace.Tracer()
            with tracer:
                output = workload.run(p, path, inputs, tracer, rec, verify, state)
            out["trace"] = tracer.summary()
        else:
            output = workload.run(p, path, inputs, trace.NullTracer(), rec, verify, state)
        out["peak_rss_mb"] = peak_rss_mb()
        if verify:
            t0 = time.perf_counter()
            workload.verify(p, path, inputs, output, rec)
            out["verify_s"] = time.perf_counter() - t0
    except Exception:
        attempted += 1
        failed += 1
        errors.append(traceback.format_exc(limit=6))
    if rec is not None:
        attempted += rec.attempted
        failed += rec.failed
        errors = rec.errors + errors
        out.update(refresh_s=rec.refresh_s, query_s=rec.query_s)
    out.update(
        attempted=attempted,
        failed=failed,
        errors=errors,
        probe_s=probe_s(),
        blas_threads={pin: os.environ.get(pin, "") for pin in BLAS_PINS},
    )
    return out


if __name__ == "__main__":
    name, workdir, params, verify, traced = sys.argv[1:]
    print(json.dumps(main(name, workdir, params, verify == "1", traced == "1")))
