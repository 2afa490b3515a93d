"""Conformance matrix: every algorithm vs every input family, at scale.

Not a paper table -- a release gate.  The unit tests prove agreement on
small random trees; this experiment re-proves it at benchmark scale
(where, e.g., recursion-depth or contraction-round bugs would first
appear) and prints the algorithm x input matrix.  The columns are what
the registry dispatches: every :data:`~repro.core.api.ALGORITHMS` entry
and every array twin (named by its function), except the ``brute``
oracle and the path-only ``cartesian``.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

import numpy as np

from repro.bench.harness import format_table
from repro.bench.inputs import SYNTHETIC_FAMILIES, bench_sizes, make_input
from repro.core.api import ALGORITHMS, resolve_algorithm

__all__ = ["run", "main"]


def _registry_columns() -> dict[str, Callable[..., np.ndarray]]:
    columns: dict[str, Callable[..., np.ndarray]] = {}
    for name, fn in ALGORITHMS.items():
        if name in ("brute", "cartesian"):
            continue
        columns[name] = fn
        twin = resolve_algorithm(name, "auto")
        if twin is not fn:
            columns[twin.__name__] = twin
    return columns


CHECK_ALGORITHMS = _registry_columns()


def run(n: int | None = None, seed: int = 0) -> dict:
    n = n if n is not None else bench_sizes()[0]
    rows = []
    all_ok = True
    for family in SYNTHETIC_FAMILIES:
        tree = make_input(family, n, seed=seed)
        reference = ALGORITHMS["sequf"](tree)
        statuses = {}
        for alg, fn in CHECK_ALGORITHMS.items():
            if alg == "sequf":
                statuses[alg] = True
                continue
            got = fn(tree)
            ok = bool(np.array_equal(got, reference))
            statuses[alg] = ok
            all_ok &= ok
        rows.append({"family": family, "n": tree.n, "status": statuses})
    return {"n": n, "rows": rows, "all_ok": all_ok}


def main(argv: list[str] | None = None) -> dict:
    result = run()
    headers = ["input"] + list(CHECK_ALGORITHMS)
    table = [
        [r["family"]] + ["ok" if r["status"][a] else "FAIL" for a in CHECK_ALGORITHMS]
        for r in result["rows"]
    ]
    print(
        format_table(
            headers,
            table,
            title=f"Self-check: algorithm agreement matrix, n={result['n']}",
        )
    )
    print()
    print(f"all algorithms agree on all inputs: {result['all_ok']}")
    return result


if __name__ == "__main__":
    main(sys.argv[1:])
