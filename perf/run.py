"""Pipeline benchmark: end-to-end metrics, traced per-layer attribution.

Usage (from the checkout root)::

    python3 perf/run.py [--workload NAME] [--seed S] [--seconds T]
                        [--trace [0|1]] [--smoke] [--out FILE]
    python3 perf/run.py compare A.json B.json

Without ``--workload`` every workload runs, with repeats scheduled
round-robin across workloads (a slow spell on the host then lands on
every workload, not on all repeats of one).  Each repeat is a fresh
child process, one at a time, with BLAS pinned to one thread.  With
``--seconds`` each workload repeats until it has used that much time;
otherwise it runs its fixed number of repeats.  ``--trace`` adds traced
children, whose per-layer spans and counters are reported beside the
end-to-end metrics of the untraced ones.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every check passed, 1 when a check or an operation failed, and 2 when
seed 0 generated inputs whose digest differs from ``perf/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = Path(__file__).with_name("digests.json")
WORK = ROOT / ".perf_work"
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170

if __package__ in (None, ""):
    # Run as a script: import the sibling modules as the ``perf`` package,
    # never as top-level names (``perf/trace.py`` would shadow the stdlib).
    sys.path[0] = str(ROOT)


class SetupError(RuntimeError):
    """The program's sources are not where the benchmark expects them."""


def import_program() -> None:
    """Put ``src/`` first on the path and check that ``repro`` loads from it."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SetupError(f"cannot import repro from {SRC}: {exc}") from exc
    found = Path(repro.__file__).resolve()
    if SRC not in found.parents:
        raise SetupError(f"repro was imported from {found}, not from {SRC}")


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC.read_text())


# -- one child ----------------------------------------------------------------
def child_env(run_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # Temporary files (streaming spill runs) stay inside the checkout.
    env["TMPDIR"] = str(run_dir / "tmp")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def run_child(
    name: str, workdir: Path, params: dict, verify: bool, traced: bool, env: dict[str, str]
) -> dict[str, Any]:
    flags = [str(int(verify)), str(int(traced))]
    cmd = [sys.executable, "-m", "perf.child", name, str(workdir), json.dumps(params), *flags]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        error = f"child timed out after {CHILD_TIMEOUT_S} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            out = json.loads(lines[-1])
            out["wall_s"] = time.perf_counter() - t0
            return out
        error = f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return {
        "attempted": 1,
        "failed": 1,
        "errors": [error],
        "wall_s": time.perf_counter() - t0,
    }


# -- scheduling ---------------------------------------------------------------
@dataclass
class Plan:
    """The repeats of one workload within a run."""

    name: str
    params: dict[str, Any]
    workdir: Path
    repeats: int
    digest: str
    spent_s: float
    untraced: list[dict[str, Any]] = field(default_factory=list)
    traced: list[dict[str, Any]] = field(default_factory=list)

    def next_child(self, seconds: float | None, trace: bool) -> str | None:
        """``"untraced"``, ``"traced"`` or ``None`` when this workload is done."""
        u, t = len(self.untraced), len(self.traced)
        if seconds is None:
            if u < self.repeats:
                return "untraced"
            return "traced" if trace and t < 1 else None
        kind = "traced" if trace and t < u else "untraced"
        minimum_met = (u >= 1 and t >= 1) if trace else u >= 2
        if not minimum_met:
            return kind
        last = (self.traced if kind == "traced" and t else self.untraced)[-1]
        estimate = last["wall_s"] - last.get("verify_s", 0.0)
        return kind if self.spent_s + estimate <= seconds else None


def prepare(name: str, params: dict, seed: int, run_dir: Path, repeats: int) -> Plan:
    from perf.workloads import WORKLOADS, digest

    t0 = time.perf_counter()
    workdir = run_dir / name
    workdir.mkdir(parents=True)
    WORKLOADS[name].make_inputs(params, seed, workdir)
    return Plan(name, params, workdir, repeats, digest(workdir), time.perf_counter() - t0)


def schedule(plans: list[Plan], seconds: float | None, trace: bool, env: dict[str, str]) -> None:
    """Run children round-robin across workloads until every plan is done."""
    active = list(plans)
    while active:
        for plan in list(active):
            kind = plan.next_child(seconds, trace)
            if kind is None:
                active.remove(plan)
                continue
            verify = kind == "untraced" and not plan.untraced
            out = run_child(plan.name, plan.workdir, plan.params, verify, kind == "traced", env)
            plan.spent_s += out["wall_s"]
            (plan.traced if kind == "traced" else plan.untraced).append(out)


# -- metrics --------------------------------------------------------------------
def _quantile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def _timed_s(child: dict[str, Any]) -> float:
    return sum(child["refresh_s"]) + sum(child["query_s"])


def end_to_end(children: list[dict[str, Any]]) -> dict[str, tuple[float, list[float]]]:
    """Each end-to-end metric: ``(value, per-child samples)``.

    Latency percentiles pool every sample of the run; set-up time and
    peak memory are medians over children.  The 90th percentile, not the
    median, is reported because it is the steadier of the two from run to
    run on a host whose speed swings between two levels (see README.md).
    """
    kids = [c for c in children if "peak_rss_mb" in c]
    if not kids:
        return {}
    setup = [c["setup_s"] for c in kids]
    rss = [c["peak_rss_mb"] for c in kids]
    metrics = {
        "setup_s": (statistics.median(setup), setup),
        "peak_rss_mb": (statistics.median(rss), rss),
    }
    for metric, key in (("refresh_p90_ms", "refresh_s"), ("query_p90_ms", "query_s")):
        pooled = [s for c in kids for s in c[key]]
        metrics[metric] = (
            1e3 * _quantile(pooled, 0.9),
            [1e3 * _quantile(c[key], 0.9) for c in kids],
        )
    return metrics


def per_layer(plan: Plan) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced children, and any inconsistency."""
    from perf.trace import COUNTERS, SPANS

    traced = [c["trace"] for c in plan.traced if "trace" in c]
    untraced = [c for c in plan.untraced if "peak_rss_mb" in c]
    if not traced or not untraced:
        return {}, []
    values = {
        f"{span}.share": statistics.median(t["self_s"][span] / t["root_s"] for t in traced)
        for span in SPANS
    }
    values["trace.root_s"] = statistics.median(t["root_s"] for t in traced)
    values["trace.coverage"] = statistics.median(t["coverage"] for t in traced)
    values["trace.overhead"] = (
        statistics.median(_timed_s(c) for c in plan.traced if "trace" in c)
        / statistics.median(_timed_s(c) for c in untraced)
        - 1.0
    )
    values.update((name, traced[0]["counters"][name]) for name in COUNTERS)
    problems = [
        f"counters differ between traced children: {t['counters']} vs {traced[0]['counters']}"
        for t in traced[1:]
        if t["counters"] != traced[0]["counters"]
    ]
    return values, problems


def summarize(plan: Plan, spec: dict[str, Any]) -> dict[str, Any]:
    children = plan.untraced + plan.traced
    e2e = end_to_end(plan.untraced)
    layers, problems = per_layer(plan)
    errors = [e for c in children for e in c.get("errors", [])] + problems
    attempted = sum(c.get("attempted", 0) for c in children) + len(problems)
    failed = sum(c.get("failed", 0) for c in children) + len(problems)
    metrics = {
        m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"], "samples": e2e[m["name"]][1]}
        for m in spec["end_to_end"]
        if m["name"] in e2e
    }
    layer_metrics = {
        m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer"]
        if m["name"] in layers
    }
    complete = len(metrics) == len(spec["end_to_end"]) and (
        not plan.traced or len(layer_metrics) == len(spec["per_layer"])
    )
    return {
        "params": plan.params,
        "digest": plan.digest,
        "children": len(plan.untraced),
        "traced_children": len(plan.traced),
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "probe_s": _median_probe(children),
        "metrics": metrics,
        "per_layer": layer_metrics,
    }


def _median_probe(children: list[dict[str, Any]]) -> float | None:
    probes = [c["probe_s"] for c in children if "probe_s" in c]
    return statistics.median(probes) if probes else None


def environment(results: list[dict[str, Any]]) -> dict[str, Any]:
    import numpy as np

    first = next((c for c in results if "blas_threads" in c), {})
    return {
        "blas_threads": first.get("blas_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "probe_s": _median_probe(results),
    }


def commit() -> str:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- reporting --------------------------------------------------------------------
def print_table(summaries: dict[str, dict[str, Any]]) -> None:
    for name, s in summaries.items():
        print(
            f"{name}: {s['children']} children (+{s['traced_children']} traced), "
            f"{s['failed']}/{s['attempted']} failed, probe {s['probe_s']} s"
        )
        for metric, m in s["metrics"].items():
            print(f"  {metric:<16} {m['value']:>14.4f} {m['unit']:<8} n={len(m['samples'])}")
        for metric, m in s["per_layer"].items():
            if m["value"]:
                print(f"  {metric:<28} {m['value']:>14.4f} {m['unit']}")
        for error in s["errors"][:5]:
            print(f"  error: {error.strip().splitlines()[-1]}")


def result_line(summaries: dict[str, dict[str, Any]], single: bool, trace: bool) -> dict:
    metrics: dict[str, dict[str, Any]] = {}
    for name, s in summaries.items():
        groups = [s["per_layer"]] if single and trace else [s["metrics"], s["per_layer"]]
        for group in groups:
            for metric, m in group.items():
                key = metric if single else f"{name}.{metric}"
                metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


# -- compare ----------------------------------------------------------------------
def _spread(samples: list[float]) -> tuple[float, float, float | None, float | None]:
    """``(median, relative spread, q1, q3)``; quartiles need >= 4 samples."""
    med = statistics.median(samples)
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        return med, (q3 - q1) / med, q1, q3
    return med, (max(samples) - min(samples)) / med, None, None


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[str, float]:
    """``(verdict, ratio B/A)`` for one metric.

    B regressed when its median is worse than A's by more than the bound.
    When A's own spread is wider than the bound the verdict is
    ``unresolved`` instead, unless every sample of B beats every sample of A.
    """
    med_a, spread_a, _, _ = _spread(a)
    med_b = statistics.median(b)
    ratio = med_b / med_a
    worse = ratio - 1.0 if better == "lower" else 1.0 / ratio - 1.0
    if (max(b) < min(a)) if better == "lower" else (min(b) > max(a)):
        return "ok", ratio  # every run of B beats every run of A
    if spread_a > bound:
        return "unresolved", ratio
    return ("regressed" if worse > bound else "ok"), ratio


def compare(path_a: str, path_b: str) -> int:
    from perf.trace import COUNTERS

    spec = load_spec()
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    regressed = False
    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound")
    print("{:<13} {:<15} {:>30} {:>30} {:>7} {:>6}  verdict".format(*header))
    for name in [w for w in a if w in b]:
        for m in spec["end_to_end"]:
            sa = a[name]["metrics"].get(m["name"], {}).get("samples")
            sb = b[name]["metrics"].get(m["name"], {}).get("samples")
            if not sa or not sb:
                print(f"{name:<13} {m['name']:<15} missing")
                regressed = True
                continue
            result, ratio = verdict(sa, sb, m["bound"], m["better"])
            regressed |= result == "regressed"
            cells = []
            for samples in (sa, sb):
                med, _, q1, q3 = _spread(samples)
                cells.append(f"{med:.4g}" + (f" [{q1:.4g}, {q3:.4g}]" if q1 is not None else ""))
            print(
                f"{name:<13} {m['name']:<15} {cells[0]:>30} {cells[1]:>30} "
                f"{ratio:>7.3f} {m['bound']:>6.2f}  {result}"
            )
        la, lb = a[name].get("per_layer", {}), b[name].get("per_layer", {})
        if la and lb:
            differ = [c for c in COUNTERS if la[c]["value"] != lb[c]["value"]]
            regressed |= bool(differ)
            print(f"{name:<13} counters: " + (f"differ {differ}" if differ else "identical"))
        for side, data in (("A", a), ("B", b)):
            if data[name]["failed"]:
                regressed = True
                print(f"{name:<13} {side}: {data[name]['failed']} failed operations")
    return 1 if regressed else 0


# -- main -------------------------------------------------------------------------
def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="time per workload (default: fixed repeats)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repeat")
    parser.add_argument("--out", help="write the full result (all samples) as JSON here")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: perf/run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse_args(argv)
    try:
        import_program()
        spec = load_spec()
    except (SetupError, OSError) as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    from perf.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"perf: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    expected = json.loads(DIGESTS.read_text())
    run_dir = WORK / str(os.getpid())
    try:
        (run_dir / "tmp").mkdir(parents=True)
        plans = []
        for name in names:
            w = WORKLOADS[name]
            params = w.smoke if args.smoke else w.full
            plan = prepare(name, params, args.seed, run_dir, 1 if args.smoke else w.repeats)
            if args.seed == 0 and not args.smoke and plan.digest != expected.get(name):
                print(
                    f"perf: {name} inputs for seed 0 have digest {plan.digest}, "
                    f"expected {expected.get(name)}: a generator changed",
                    file=sys.stderr,
                )
                return 2
            plans.append(plan)
        schedule(plans, args.seconds, bool(args.trace), child_env(run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    summaries = {plan.name: summarize(plan, spec) for plan in plans}
    children = [c for plan in plans for c in plan.untraced + plan.traced]
    if args.out:
        result = {
            "schema": "perf-result/1",
            "seed": args.seed,
            "smoke": args.smoke,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "env": environment(children),
            "workloads": summaries,
        }
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print_table(summaries)
    line = result_line(summaries, single=args.workload is not None, trace=bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # A terminated run still kills its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
