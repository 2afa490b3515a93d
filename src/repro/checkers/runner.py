"""Driver behind ``python -m repro check``.

Composes the checker layers into one pass/fail gate: the static RPR
rules of :mod:`repro.checkers.analyzer` (family ``lint`` unless
``--no-lint``, ``slabs`` with ``--slabs``, ``parsafe`` with
``--parsafe``; one parse per file), then the dynamic layers.  With no
paths the run adds :func:`run_race_battery`, :func:`run_corpus_replay`
and, with ``--parsafe``, :func:`run_interleaving_battery`; a given
``.py`` path defining ``build_round()`` is race-checked instead
(:func:`run_dynamic_fixture`).  ``--bounds`` adds the empirical fit
gate (:func:`repro.checkers.fit.run_fit`) and writes its JSON report.

Exit-code contract (stable; CI and the tests rely on it):

* ``0`` -- every selected layer is clean;
* ``1`` -- at least one finding: static findings, race or interleaving
  failures, corpus regressions, or bound fits over tolerance;
* ``2`` -- usage error (a given path does not exist); no checks ran.

``--json`` replaces the line-oriented output with one JSON object
(``{"lint": ..., "races": ..., "corpus": ..., "slabs": ..., "parsafe":
..., "interleaving": ..., "bounds": ..., "ok": ..., "exit_code": ...}``)
on stdout; the exit code is unchanged.
"""

from __future__ import annotations

import json
import runpy
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.checkers.analyzer import FAMILIES, Finding, analyze
from repro.errors import RaceConditionError

__all__ = [
    "run_check",
    "run_race_battery",
    "run_interleaving_battery",
    "run_corpus_replay",
    "run_dynamic_fixture",
    "DEFAULT_BOUNDS_REPORT",
]

#: Where ``--bounds`` writes its JSON artifact unless overridden.
DEFAULT_BOUNDS_REPORT = "results/bounds_report.json"


def run_race_battery() -> list[str]:
    """Run the built-in dynamic race checks; return failure descriptions.

    Race-checked ``paruf_sync`` against the brute-force oracle is the
    machine check of the Lemma 4.1 disjointness argument; the detector
    self-test guards against a silently broken recorder.
    """
    import numpy as np

    from repro.checkers.access import RoundRecorder, install, record_write, uninstall
    from repro.checkers.races import check_recorder
    from repro.core.brute import brute_force_sld
    from repro.core.paruf_sync import paruf_sync
    from repro.core.rctt import rctt
    from repro.runtime.cost_model import CostTracker
    from repro.trees.generators import caterpillar, path_tree, random_tree

    failures: list[str] = []

    # 1. Self-test: two tasks writing the same cell MUST be caught.
    recorder = RoundRecorder(where="self-test round")
    install(recorder)
    try:
        recorder.begin_task(0)
        record_write("shared", 0)
        recorder.begin_task(1)
        record_write("shared", 0)
        recorder.end_task()
    finally:
        uninstall(recorder)
    try:
        check_recorder(recorder)
        failures.append("race detector self-test: conflicting writes were NOT detected")
    except RaceConditionError:
        pass

    # 2./3. Race-checked algorithms against the definition-level oracle.
    trees = [random_tree(48, seed=s) for s in range(3)]
    trees += [path_tree(33), caterpillar(9, 3), path_tree(2)]
    for i, tree in enumerate(trees):
        expected = brute_force_sld(tree)
        try:
            got = paruf_sync(tree, race_check=True, shuffle=True, seed=i)
        except RaceConditionError as exc:
            failures.append(f"paruf_sync race on battery tree {i}: {exc}")
            continue
        if not np.array_equal(got, expected):
            failures.append(f"paruf_sync disagrees with oracle on battery tree {i}")
        try:
            got = rctt(tree, seed=i, race_check=True)
        except RaceConditionError as exc:
            failures.append(f"rctt race on battery tree {i}: {exc}")
            continue
        if not np.array_equal(got, expected):
            failures.append(f"rctt disagrees with oracle on battery tree {i}")

    # 4. CostTracker.parallel_round hook: clean round passes, racy raises.
    tracker = CostTracker(race_check=True)
    with tracker.parallel_round() as rnd:
        record_write("cell", 0)
        rnd.task(1.0)
        record_write("cell", 1)
        rnd.task(1.0)
    try:
        tracker = CostTracker(race_check=True)
        with tracker.parallel_round() as rnd:
            record_write("cell", 7)
            rnd.task(1.0)
            record_write("cell", 7)
            rnd.task(1.0)
        failures.append("CostTracker.parallel_round race hook did not catch a same-cell write")
    except RaceConditionError:
        pass
    return failures


def run_interleaving_battery(seeds: int = 20, num_threads: int = 4) -> list[str]:
    """Replay every parallel algorithm under seeded hostile schedules.

    ``paruf``, ``paruf_sync`` (whose :class:`~repro.runtime.scheduler.Scheduler`
    rounds the schedule permutes), ``paruf_threaded`` (real threads, delayed
    at its marked points) and ``rctt`` must reproduce the ``sequf``
    reference bit for bit under every
    :func:`repro.runtime.interleave.hostile_schedule` seed; deviations are
    returned as failure strings.  The dynamic counterpart of RPR3xx.
    """
    import numpy as np

    from repro.core import paruf, paruf_sync, paruf_threaded, rctt, sequf
    from repro.runtime.interleave import hostile_schedule
    from repro.trees.generators import caterpillar, path_tree, random_tree
    from repro.trees.wtree import WeightedTree

    rng = np.random.default_rng(20240613)

    def with_distinct_weights(tree: WeightedTree) -> WeightedTree:
        w = rng.permutation(tree.m).astype(np.float64) + 1.0
        return WeightedTree(tree.n, tree.edges, w)

    trees = [
        ("path-17", with_distinct_weights(path_tree(17))),
        ("caterpillar-24", with_distinct_weights(caterpillar(24))),
        ("random-33", with_distinct_weights(random_tree(33, seed=7))),
    ]

    failures: list[str] = []

    def check(label: str, tree_name: str, seed: int, got: np.ndarray, want: np.ndarray) -> None:
        if not np.array_equal(got, want):
            bad = int(np.flatnonzero(got != want)[0])
            failures.append(
                f"{label} on {tree_name} diverged under hostile schedule "
                f"seed={seed}: parents[{bad}] = {int(got[bad])}, expected "
                f"{int(want[bad])}"
            )

    runs: list[tuple[str, Callable[[WeightedTree, int], np.ndarray]]] = [
        ("paruf(order=random)", lambda tree, seed: paruf(tree, order="random", seed=seed)),
        ("paruf_sync(shuffle)", lambda tree, seed: paruf_sync(tree, shuffle=True, seed=seed)),
        ("paruf_sync", lambda tree, seed: paruf_sync(tree)),
        ("paruf_threaded", lambda tree, seed: paruf_threaded(tree, num_threads=num_threads)),
        ("rctt", lambda tree, seed: rctt(tree, seed=seed)),
    ]
    for tree_name, tree in trees:
        want = sequf(tree)
        for seed in range(seeds):
            with hostile_schedule(seed):
                for label, run in runs:
                    check(label, tree_name, seed, run(tree, seed), want)
    return failures


def run_dynamic_fixture(path: Path) -> list[str]:
    """Execute a ``build_round()`` fixture under
    ``Scheduler(race_check=True, shuffle=True, seed=0)``; return failures."""
    from repro.runtime.scheduler import Scheduler

    ns = runpy.run_path(str(path))
    build_round = ns.get("build_round")
    if build_round is None:
        return []
    failures: list[str] = []
    try:
        tasks = build_round()
        Scheduler(race_check=True, shuffle=True, seed=0).run_round(
            list(tasks), where=f"fixture {path.name}"
        )
    except RaceConditionError as exc:
        failures.append(f"{path}: {exc}")
    except Exception as exc:  # fixture bugs are failures too, not crashes
        failures.append(f"{path}: fixture error: {type(exc).__name__}: {exc}")
    return failures


def run_corpus_replay(corpus_dir: str | Path | None = None) -> list[str]:
    """Replay the committed fuzz corpus; return regression descriptions.

    A finding means a previously fixed bug has regressed.  Returns ``[]``
    both when every entry is clean and when the corpus directory does not
    exist (installed-package runs: nothing to replay is not a failure).
    """
    from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, replay_corpus

    corpus_dir = Path(corpus_dir) if corpus_dir is not None else DEFAULT_CORPUS_DIR
    if not corpus_dir.is_dir():
        return []
    return [
        f"{path.name}: {finding.describe()}"
        for path, findings in replay_corpus(corpus_dir)
        for finding in findings
    ]


def run_check(
    paths: list[str] | None = None,
    lint: bool = True,
    races: bool = True,
    bounds: bool = False,
    slabs: bool = False,
    parsafe: bool = False,
    json_output: bool = False,
    bounds_report: str | Path = DEFAULT_BOUNDS_REPORT,
) -> int:
    """Run the selected checker layers; print a report; return exit status.

    See the module docstring for the exit-code contract.
    """
    explicit = bool(paths)
    targets = [Path(p) for p in paths or []]
    errors = [f"no such file or directory: {t}" for t in targets if not t.exists()]
    if errors:
        if json_output:
            print(json.dumps({"error": errors, "ok": False, "exit_code": 2}))
        else:
            print("\n".join(f"repro check: {error}" for error in errors))
        return 2

    emit = (lambda *a, **k: None) if json_output else print

    families = [f for f, on in (("lint", lint), ("slabs", slabs), ("parsafe", parsafe)) if on]
    findings: dict[str, list[Finding]] = {family: [] for family in FAMILIES}
    findings.update(analyze(targets if explicit else None, families))
    for family in families:
        for d in findings[family]:
            emit(d.format())

    race_failures: list[str] = []
    if races and explicit:
        for t in targets:
            if t.is_file() and t.suffix == ".py":
                race_failures.extend(run_dynamic_fixture(t))
    elif races:
        race_failures = run_race_battery()
    failures = {
        "races": race_failures,
        "corpus": run_corpus_replay() if races and not explicit else [],
        "interleaving": run_interleaving_battery() if parsafe and not explicit else [],
    }
    for key, prefix in (("races", "RACE"), ("corpus", "CORPUS"), ("interleaving", "INTERLEAVE")):
        for f in failures[key]:
            emit(f"{prefix} {f}")

    fit_report = None
    if bounds:
        from repro.checkers.fit import run_fit

        fit_report = run_fit()
        artifact = fit_report.write_json(bounds_report)
        emit(fit_report.summary())
        emit(f"bounds report written to {artifact}")

    n_bound = len(fit_report.failures) if fit_report is not None else 0
    counts = {key: len(v) for key, v in (*findings.items(), *failures.items())}
    ok = not any(counts.values()) and n_bound == 0
    exit_code = 0 if ok else 1

    if json_output:

        def section(enabled: bool, items: list[Any], field: str = "failures") -> dict[str, Any]:
            return {"enabled": enabled, "count": len(items), field: items}

        def static(family: str) -> dict[str, Any]:
            return section(family in families, [asdict(d) for d in findings[family]], "findings")

        payload = {
            "lint": static("lint"),
            "races": section(races, failures["races"]),
            "corpus": section(races and not explicit, failures["corpus"]),
            "slabs": static("slabs"),
            "parsafe": static("parsafe"),
            "interleaving": section(parsafe and not explicit, failures["interleaving"]),
            "bounds": fit_report.to_dict() if fit_report is not None else None,
            "ok": ok,
            "exit_code": exit_code,
        }
        print(json.dumps(payload, indent=2))
        return exit_code

    if ok:
        print("repro check: OK")
        return 0
    parts = [f"{layer}: {n}" for layer, n in (*counts.items(), ("bounds", n_bound)) if n]
    print(f"repro check: failed ({', '.join(parts)})")
    return 1
