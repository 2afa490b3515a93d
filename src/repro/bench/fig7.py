"""Figure 7 reproduction: phase breakdowns of RCTT and ParUF.

The paper decomposes billion-scale runs into RCTT = Build / Trace / Sort
and ParUF = Preprocess / Async / Postprocess, observing that RCTT is
dominated by RC-tree construction (Trace at most ~23%, usually a few
percent) and that ParUF on knuth-perm is dominated by the Async step.
The same phase spans instrument this reproduction's wall-clock runs.
"""

from __future__ import annotations

import sys

from repro.bench.harness import format_table, run_algorithm
from repro.bench.inputs import SYNTHETIC_FAMILIES, bench_sizes, make_input, realworld_inputs

__all__ = ["run", "main"]

RCTT_PHASES = ("build", "trace", "sort")
PARUF_PHASES = ("preprocess", "async", "postprocess")


def run(
    n: int | None = None,
    include_realworld: bool = True,
    seed: int = 0,
) -> dict:
    n = n if n is not None else bench_sizes()[1]
    inputs: dict[str, object] = {
        family: make_input(family, n, seed=seed) for family in SYNTHETIC_FAMILIES
    }
    if include_realworld:
        inputs.update(realworld_inputs(n, seed=seed))
    rows = []
    for name, tree in inputs.items():
        # The reference contraction builder mirrors the cost structure of
        # the paper's implementation, which is what Figure 7 profiles; the
        # production default (vectorized builder) shrinks Build so far that
        # the paper's breakdown question stops being meaningful.
        rctt_run = run_algorithm("rctt", tree, builder="reference")
        paruf_run = run_algorithm("paruf", tree)
        rt = sum(rctt_run.phases.values()) or 1.0
        pt = sum(paruf_run.phases.values()) or 1.0
        rows.append(
            {
                "input": name,
                "n": tree.n,
                "rctt_total": rctt_run.wall_seconds,
                "paruf_total": paruf_run.wall_seconds,
                "rctt": {ph: rctt_run.phases.get(ph, 0.0) / rt for ph in RCTT_PHASES},
                "paruf": {ph: paruf_run.phases.get(ph, 0.0) / pt for ph in PARUF_PHASES},
            }
        )
    summary = {
        "max_trace_fraction": max(r["rctt"]["trace"] for r in rows),
        "build_dominates": all(
            r["rctt"]["build"] >= max(r["rctt"]["trace"], r["rctt"]["sort"]) for r in rows
        ),
    }
    return {"n": n, "rows": rows, "summary": summary}


def main(argv: list[str] | None = None) -> dict:
    result = run()
    headers = (
        ["input", "n"]
        + [f"RCTT {p}%" for p in RCTT_PHASES]
        + [f"ParUF {p}%" for p in PARUF_PHASES]
    )
    rows = []
    for r in result["rows"]:
        rows.append(
            [r["input"], str(r["n"])]
            + [f"{100 * r['rctt'][p]:.1f}" for p in RCTT_PHASES]
            + [f"{100 * r['paruf'][p]:.1f}" for p in PARUF_PHASES]
        )
    print(
        format_table(
            headers,
            rows,
            title=f"Figure 7 (reproduction): phase breakdown fractions, n={result['n']}",
        )
    )
    s = result["summary"]
    print()
    print(f"max RCTT trace fraction: {100 * s['max_trace_fraction']:.1f}%  (paper: at most ~23%)")
    print(f"RCTT build dominates on every input: {s['build_dominates']}  (paper: true)")
    return result


if __name__ == "__main__":
    main(sys.argv[1:])
