"""One-shot reproduction report: every experiment, one markdown document.

``python -m repro.bench.report [output.md]`` runs the full experiment
suite (Table 1, Figures 6-8, the lower-bound check, ablations, and the
self-check matrix) and writes a single timestamped markdown report -- the
machine-generated companion to the hand-written EXPERIMENTS.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

from repro._version import __version__
from repro.io import atomic_write

__all__ = ["generate_report", "format_bench_results", "main"]

_EXPERIMENTS = ("selfcheck", "table1", "fig6", "fig7", "fig8", "lowerbound", "ablation")

_HEADERS = {
    "selfcheck": "Self-check: algorithm agreement matrix",
    "table1": "Table 1: parallel times and speedups over SeqUF",
    "fig6": "Figure 6: time vs threads, synthetic inputs",
    "fig7": "Figure 7: RCTT / ParUF phase breakdowns",
    "fig8": "Figure 8: time vs threads, real-world stand-ins",
    "lowerbound": "Lemma 3.6: the Omega(n log h) scaling check",
    "ablation": "Ablations: design choices",
}


def generate_report(experiments: tuple[str, ...] = _EXPERIMENTS) -> str:
    """Run the experiment harnesses; return the combined markdown report."""
    import importlib

    sections: list[str] = []
    sections.append("# Reproduction report")
    sections.append("")
    sections.append(
        f"Generated by `repro {__version__}` via `python -m repro.bench.report`. "
        "See EXPERIMENTS.md for the paper-vs-measured analysis and DESIGN.md "
        "for the substitution methodology."
    )
    for name in experiments:
        module = importlib.import_module(f"repro.bench.{name}")
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            module.main([])
        elapsed = time.perf_counter() - start
        sections.append("")
        sections.append(f"## {_HEADERS.get(name, name)}")
        sections.append("")
        sections.append(f"_Experiment wall time: {elapsed:.1f}s_")
        sections.append("")
        sections.append("```text")
        sections.append(buffer.getvalue().rstrip())
        sections.append("```")
    return "\n".join(sections) + "\n"


def format_bench_results(results, calibration_s: float) -> str:
    """Printable table for one perf-kernel run (``python -m repro bench``)."""
    from repro.bench.harness import format_table

    rows = [
        [
            r.kernel,
            str(r.size),
            str(r.repeats),
            f"{r.min_s * 1e3:.2f}",
            f"{r.median_s * 1e3:.2f}",
            f"{r.p90_s * 1e3:.2f}",
            f"{r.instrumented_s * 1e3:.2f}",
            f"{r.speedup:.2f}x",
            f"{r.work:.3g}",
            f"{r.depth:.3g}",
        ]
        for r in results
    ]
    table = format_table(
        ["kernel", "size", "reps", "min ms", "median ms", "p90 ms", "instr ms", "speedup", "work", "depth"],
        rows,
        title="perf kernels (wall: instrumentation disabled; speedup: instrumented/fast)",
    )
    return f"{table}\ncalibration probe: {calibration_s * 1e3:.2f} ms"


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    out_path = args[0] if args else "reproduction_report.md"
    report = generate_report()
    with atomic_write(out_path) as fh:
        fh.write(report.encode())
    print(f"wrote {out_path} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
