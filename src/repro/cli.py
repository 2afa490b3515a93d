"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``generate``
    Build a synthetic tree (topology family + weight scheme) and save it.
``compute``
    Compute the SLD of a tree (generated inline or loaded from ``.npz``),
    print summary metrics, optionally save/render/export it.
``cluster``
    Run the points pipeline on a synthetic cloud and print cluster sizes.
``bench``
    Run one of the paper-reproduction experiment harnesses.
``snapshot``
    Precompute the query-ready serving artifact (an mmap-able
    ``repro-dendro-snapshot/2`` file) of a tree's dendrogram.
``serve`` / ``query``
    Answer dendrogram queries over a snapshot: ``serve`` is a line-oriented
    REPL on stdin, ``query`` executes a batch file (grouping vectorizable
    queries) and can self-check the snapshot against the brute-force
    oracle.
``info``
    Describe a saved tree or dendrogram archive, a snapshot, or a REDG1
    edge file.
``check``
    Run the repo invariant lint (RPR codes) and the round-race battery.
``fuzz``
    Differential + metamorphic fuzzing of the dendrogram algorithms and
    the io loaders (``--selftest`` injects known mutants; ``--replay``
    re-runs the regression corpus).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro._version import __version__

__all__ = ["main", "build_parser"]

_GENERATORS = ("path", "star", "knuth", "random", "caterpillar", "broom", "binary")
_EXPERIMENTS = (
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "lowerbound",
    "ablation",
    "selfcheck",
    "scale",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal parallel single-linkage dendrogram computation (SPAA 2024 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic weighted tree")
    gen.add_argument("--kind", choices=_GENERATORS, default="knuth")
    gen.add_argument("--n", type=int, default=1000, help="number of vertices")
    gen.add_argument("--scheme", default="perm", help="weight scheme (see repro.trees.weights)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output tree archive path (.npz format)")

    comp = sub.add_parser("compute", help="compute a single-linkage dendrogram")
    _add_tree_source(comp)
    comp.add_argument("--algorithm", default="rctt")
    comp.add_argument("--validate", action="store_true", help="run structural validation")
    comp.add_argument("--render", action="store_true", help="print ASCII dendrogram (small inputs)")
    comp.add_argument("--out", help="save the dendrogram archive (.npz format) to this path")
    comp.add_argument("--linkage-csv", help="export the SciPy linkage matrix as CSV")

    clus = sub.add_parser("cluster", help="cluster a synthetic point cloud")
    clus.add_argument("--dataset", choices=("blobs", "rings"), default="blobs")
    clus.add_argument("--n", type=int, default=300)
    clus.add_argument("--clusters", type=int, default=4, help="blob centers / ring count, and the cut k")
    clus.add_argument("--knn", type=int, default=0, help="k-NN graph degree (0 = complete graph)")
    clus.add_argument("--algorithm", default="rctt")
    clus.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench",
        help="run the perf-regression kernels (default) or a paper experiment",
    )
    bench.add_argument(
        "experiment",
        nargs="?",
        choices=_EXPERIMENTS,
        help="run one paper-reproduction experiment instead of the perf kernels",
    )
    bench.add_argument(
        "--quick", action="store_true", help="small inputs / few repeats (CI mode)"
    )
    bench.add_argument(
        "--compare",
        metavar="BASELINE.json",
        help="gate against a committed BENCH_*.json; exit 1 on >tolerance "
        "wall regression or any work/depth drift",
    )
    bench.add_argument(
        "--out",
        default="results/BENCH_latest.json",
        metavar="PATH",
        help="where to write the fresh benchmark JSON "
        "(default: results/BENCH_latest.json)",
    )
    bench.add_argument(
        "--backend",
        choices=("reference", "array", "both"),
        default="both",
        help="kernel family to run: reference kernels, array-backend "
        "kernels (the *-fast twins), or both (default)",
    )
    bench.add_argument(
        "--repeats", type=int, default=None, help="wall-time repeats per kernel"
    )
    bench.add_argument(
        "--kernels",
        default=None,
        metavar="NAMES",
        help="comma-separated subset of kernels to run (default: all)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="wall regression tolerance for --compare (default: 0.15)",
    )

    snap = sub.add_parser(
        "snapshot", help="write the mmap-able query snapshot of a dendrogram"
    )
    _add_tree_source(snap)
    snap.add_argument("--algorithm", default="rctt")
    snap.add_argument("--out", required=True, help="output snapshot path")

    serve = sub.add_parser(
        "serve", help="answer dendrogram queries line by line on stdin"
    )
    serve.add_argument("snapshot", help="snapshot file written by 'snapshot'")
    serve.add_argument(
        "--no-mmap", action="store_true", help="materialize slabs instead of mmap"
    )
    serve.add_argument(
        "--cache", type=int, default=32, help="LRU cut-cache entries (0 disables)"
    )

    query = sub.add_parser(
        "query", help="execute a batch of dendrogram queries against a snapshot"
    )
    query.add_argument("snapshot", help="snapshot file written by 'snapshot'")
    query.add_argument(
        "--batch",
        metavar="FILE",
        help="protocol lines to execute ('-' for stdin); see repro.dendrogram.service",
    )
    query.add_argument(
        "--selfcheck",
        action="store_true",
        help="verify the mmap-loaded snapshot against the brute-force oracle "
        "(batched heights/cuts vs scalar recomputation); exit 1 on mismatch",
    )
    query.add_argument(
        "--queries",
        type=int,
        default=10_000,
        help="random height queries for --selfcheck (default: 10000)",
    )
    query.add_argument("--seed", type=int, default=0, help="--selfcheck query seed")
    query.add_argument(
        "--no-mmap", action="store_true", help="materialize slabs instead of mmap"
    )

    ana = sub.add_parser(
        "analyze", help="parallelism profile + dendrogram metrics of an input"
    )
    _add_tree_source(ana)

    cmp_ = sub.add_parser("compare", help="compare two saved dendrograms")
    cmp_.add_argument("left")
    cmp_.add_argument("right")
    cmp_.add_argument("--ks", default="2,4,8", help="comma-separated cut sizes for the B_k curve")

    info = sub.add_parser("info", help="describe a saved archive, snapshot or edge file")
    info.add_argument("path")

    check = sub.add_parser(
        "check", help="run the repo invariant lint and the round-race battery"
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (and .py build_round() fixtures to "
        "race-check); default: the repro package source + built-in battery",
    )
    check.add_argument("--no-lint", action="store_true", help="skip the RPR lint pass")
    check.add_argument(
        "--no-races", action="store_true", help="skip the dynamic race checks"
    )
    check.add_argument(
        "--bounds",
        action="store_true",
        help="run the empirical cost-bound fit gate over registered algorithms",
    )
    check.add_argument(
        "--slabs",
        action="store_true",
        help="run the RPR2xx slab/effect lint over the array-backend layers "
        "(or over the given paths)",
    )
    check.add_argument(
        "--parsafe",
        action="store_true",
        help="run the RPR3xx parallel-safety lint over the concurrency "
        "layers (or over the given paths) plus, in the default run, the "
        "adversarial-interleaving battery",
    )
    check.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="emit one JSON report object instead of line-oriented output",
    )
    check.add_argument(
        "--bounds-report",
        default=None,
        metavar="PATH",
        help="where --bounds writes its JSON artifact "
        "(default: results/bounds_report.json)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential + metamorphic fuzzing of the algorithms and io loaders",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="base seed; case i is f(seed, i)")
    fuzz.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECS",
        help="wall-clock budget; only truncates the deterministic case stream",
    )
    fuzz.add_argument(
        "--cases", type=int, default=None, help="exact number of cases to run"
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="where shrunken failures are written "
        "(default: tests/fixtures/corpus)",
    )
    fuzz.add_argument(
        "--replay",
        metavar="CORPUS",
        default=None,
        help="replay a regression corpus directory instead of fuzzing; "
        "exits 1 if any entry finds its bug again",
    )
    fuzz.add_argument(
        "--selftest",
        action="store_true",
        help="inject known mutants and fail unless the fuzzer catches every one",
    )
    fuzz.add_argument(
        "--domains",
        default=None,
        metavar="NAMES",
        help="comma-separated domains of the registry in repro.fuzz.domains "
        "to draw from (default: the full weighted wheel)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="skip minimization of failing cases"
    )
    return parser


def _add_tree_source(parser: argparse.ArgumentParser) -> None:
    """The ``--input`` / ``--kind`` / ``--n`` / ``--scheme`` / ``--seed`` group."""
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--input", help="tree .npz saved by 'generate' or repro.io")
    src.add_argument("--kind", choices=_GENERATORS, help="generate inline instead")
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--scheme", default="perm")
    parser.add_argument("--seed", type=int, default=0)


def _tree_source(args):
    """The tree the tree-source options name, and a line describing it."""
    from repro.io import load_tree
    from repro.trees.generators import make_tree

    if args.input:
        return load_tree(args.input), args.input
    kind = args.kind or "knuth"
    tree = make_tree(kind, args.n, args.scheme, args.seed)
    return tree, f"generated {kind}/{args.scheme} n={args.n}"


def _cmd_generate(args) -> int:
    from repro.io import save_tree
    from repro.trees.generators import make_tree

    tree = make_tree(args.kind, args.n, args.scheme, args.seed)
    save_tree(args.out, tree)
    print(f"wrote {args.kind}/{args.scheme} tree with n={tree.n} to {args.out}")
    return 0


def _cmd_compute(args) -> int:
    from repro.core.api import single_linkage_dendrogram
    from repro.io import export_linkage_csv, save_dendrogram

    tree, source = _tree_source(args)
    start = time.perf_counter()  # noqa: RPR001 -- user-facing timing report
    dend = single_linkage_dendrogram(tree, algorithm=args.algorithm, validate=args.validate)
    elapsed = time.perf_counter() - start  # noqa: RPR001
    print(f"input:      {source}")
    print(f"algorithm:  {args.algorithm}")
    print(f"time:       {elapsed * 1e3:.1f} ms")
    print(f"nodes:      {dend.m}")
    if dend.m:
        print(f"height h:   {dend.height}")
        print(f"root edge:  {dend.root}")
        widths = dend.level_widths()
        print(f"max level width: {int(widths.max())}")
    if args.render:
        print()
        print(dend.render())
    if args.out:
        save_dendrogram(args.out, dend)
        print(f"saved dendrogram to {args.out}")
    if args.linkage_csv:
        export_linkage_csv(args.linkage_csv, dend)
        print(f"exported linkage matrix to {args.linkage_csv}")
    return 0


def _cmd_cluster(args) -> int:
    from repro.cluster.single_linkage import single_linkage
    from repro.datasets.points import gaussian_blobs, noisy_rings

    if args.dataset == "blobs":
        pts, truth = gaussian_blobs(args.n, centers=args.clusters, seed=args.seed)
    else:
        pts, truth = noisy_rings(args.n, rings=args.clusters, seed=args.seed)
    res = single_linkage(pts, k=args.knn or None, algorithm=args.algorithm)
    labels = res.labels_k(args.clusters)
    sizes = np.bincount(labels)
    same_ours = labels[:, None] == labels[None, :]
    same_true = truth[:, None] == truth[None, :]
    agreement = float((same_ours == same_true).mean())
    print(f"dataset:   {args.dataset} (n={args.n}, target clusters={args.clusters})")
    print(f"graph:     {'complete' if not args.knn else f'{args.knn}-NN'}")
    print(f"algorithm: {args.algorithm}")
    print(f"cluster sizes: {sorted(sizes.tolist(), reverse=True)}")
    print(f"pairwise agreement with ground truth: {agreement:.3f}")
    return 0


def _cmd_bench(args) -> int:
    import importlib

    if args.experiment:
        module = importlib.import_module(f"repro.bench.{args.experiment}")
        module.main([])
        return 0

    from repro.bench.baseline import (
        DEFAULT_TOLERANCE,
        compare,
        load_baseline,
        results_to_payload,
        save_baseline,
    )
    from repro.bench.harness import bench_kernel, calibrate
    from repro.bench.kernels import kernel_names, kernels_for_backend
    from repro.bench.report import format_bench_results
    from repro.errors import ReproError

    selected = kernels_for_backend(args.backend)
    if args.kernels:
        wanted = [k.strip() for k in args.kernels.split(",") if k.strip()]
        unknown = sorted(set(wanted) - set(kernel_names()))
        if unknown:
            raise ReproError(f"unknown kernels {unknown}; available: {kernel_names()}")
        selected = [k for k in selected if k.name in wanted]

    repeats = args.repeats if args.repeats else (3 if args.quick else 5)
    # Load (and validate) the baseline up front: --compare against the file
    # being overwritten must gate on its *previous* contents.
    baseline = load_baseline(args.compare) if args.compare else None

    calibration = calibrate()
    results = [bench_kernel(k, repeats=repeats, quick=args.quick) for k in selected]
    print(format_bench_results(results, calibration))

    payload = results_to_payload(results, calibration, quick=args.quick)
    save_baseline(args.out, payload)
    print(f"wrote {args.out}")

    if baseline is not None:
        tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        ok, lines = compare(payload, baseline, tolerance=tolerance)
        print(f"comparing against {args.compare} (tolerance {tolerance:.0%}):")
        print("\n".join(lines))
        if not ok:
            return 1
    return 0


def _cmd_snapshot(args) -> int:
    from repro.core.api import single_linkage_dendrogram
    from repro.dendrogram.snapshot import build_snapshot, save_snapshot

    tree, source = _tree_source(args)
    dend = single_linkage_dendrogram(tree, algorithm=args.algorithm)
    snap = build_snapshot(dend)
    save_snapshot(args.out, snap)
    print(f"input:    {source}")
    print(
        f"snapshot: n={snap.n} nodes={snap.m} levels={snap.levels} "
        f"payload={snap.nbytes / 1024:.1f} KiB"
    )
    print(f"wrote {args.out}")
    return 0


def _load_engine(path: str, mmap: bool, cache: int = 32):
    from repro.dendrogram.query import QueryEngine
    from repro.dendrogram.snapshot import load_snapshot

    return QueryEngine(load_snapshot(path, mmap=mmap), cut_cache_size=cache)


def _cmd_serve(args) -> int:
    from repro.dendrogram.service import serve_lines

    engine = _load_engine(args.snapshot, mmap=not args.no_mmap, cache=args.cache)
    for response in serve_lines(engine, sys.stdin):
        print(response, flush=True)
    return 0


def _cmd_query(args) -> int:
    if not args.batch and not args.selfcheck:
        print("repro query: nothing to do (pass --batch FILE and/or --selfcheck)")
        return 2
    engine = _load_engine(args.snapshot, mmap=not args.no_mmap)

    if args.batch:
        from repro.dendrogram.service import execute_batch

        if args.batch == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(args.batch) as fh:
                lines = fh.read().splitlines()
        try:
            responses = execute_batch(engine, lines)
        except ValueError as exc:
            print(f"repro query: {exc}", file=sys.stderr)
            return 2
        for response in responses:
            print(response)

    if args.selfcheck:
        failures = _snapshot_selfcheck(engine, queries=args.queries, seed=args.seed)
        if failures:
            for line in failures:
                print(f"selfcheck FAIL: {line}", file=sys.stderr)
            return 1
        print(
            f"selfcheck OK: {args.queries} height queries + threshold/k cuts "
            "match the brute-force oracle"
        )
    return 0


def _snapshot_selfcheck(engine, queries: int, seed: int) -> list[str]:
    """Compare batched snapshot answers against brute-force recomputation.

    The oracle path shares nothing with the engine: the dendrogram is
    recomputed from the snapshot's tree slabs with the O(n^2) brute
    algorithm and queried with the scalar O(h) spine walks and union-find
    cuts.  Returns human-readable mismatch descriptions (empty = pass).
    """
    from repro.core.api import single_linkage_dendrogram
    from repro.dendrogram.cophenet import cophenetic_distance
    from repro.dendrogram.linkage import cut_height, cut_k

    snap = engine.snapshot
    tree = snap.to_dendrogram().tree
    oracle = single_linkage_dendrogram(tree, algorithm="brute", validate=True)
    failures: list[str] = []
    if not np.array_equal(
        np.asarray(snap.parents, dtype=np.int64), oracle.parents
    ):
        failures.append("snapshot parent array disagrees with the brute oracle")
    rng = np.random.default_rng(seed)
    n = snap.n
    pairs = rng.integers(0, n, size=(queries, 2))
    got = engine.merge_heights(pairs)
    # Scalar-oracle a seeded subsample (full 10k O(h) walks would dominate
    # CI); every batched answer still comes from the mmap-loaded slabs.
    sample = rng.choice(queries, size=min(queries, 512), replace=False)
    for i in sample:
        u, v = int(pairs[i, 0]), int(pairs[i, 1])
        want = cophenetic_distance(oracle, u, v)
        if got[i] != want:
            failures.append(f"merge_height({u}, {v}) = {got[i]!r}, oracle {want!r}")
    thresholds = (
        np.quantile(np.asarray(snap.weights), [0.0, 0.25, 0.5, 0.75, 1.0])
        if snap.m
        else np.zeros(1)
    )
    for t in thresholds:
        if not np.array_equal(engine.cut_at(float(t)), cut_height(tree, float(t))):
            failures.append(f"cut_at({float(t)!r}) disagrees with cut_height")
    for k in sorted({1, max(1, n // 3), max(1, n // 2), n}):
        if not np.array_equal(engine.cut_k(k), cut_k(tree, k)):
            failures.append(f"cut_k({k}) disagrees with linkage.cut_k")
    return failures


def _cmd_analyze(args) -> int:
    from repro.core.api import single_linkage_dendrogram
    from repro.dendrogram.analysis import parallelism_profile

    tree, source = _tree_source(args)
    dend = single_linkage_dendrogram(tree, algorithm="rctt")
    prof = parallelism_profile(tree)
    widths = dend.level_widths()
    print(f"input:            {source}")
    print(f"dendrogram height h: {dend.height}  (bounds: {tree.m and 1} .. {tree.m})")
    print(f"max level width:  {int(widths.max()) if widths.size else 0}")
    print(f"parallelism profile: {prof.summary()}")
    if prof.rounds:
        head = ", ".join(str(int(x)) for x in prof.ready_per_round[:12])
        print(f"ready-per-round (first 12): {head}{'...' if prof.rounds > 12 else ''}")
    verdict = (
        "postprocess-friendly (sort handles the tail)"
        if prof.postprocess_tail > tree.m // 2
        else "chain-bound (ParUF adversarial)"
        if prof.max_ready <= 2 and prof.rounds > max(32, tree.m // 8)
        else "wide frontier (ParUF-friendly)"
    )
    print(f"ParUF outlook:    {verdict}")
    return 0


def _cmd_compare(args) -> int:
    from repro.dendrogram.compare import fowlkes_mallows_curve
    from repro.dendrogram.validate import check_same_dendrogram
    from repro.io import load_dendrogram

    left = load_dendrogram(args.left)
    right = load_dendrogram(args.right)
    if left.tree.n != right.tree.n:
        print(f"point counts differ: {left.tree.n} vs {right.tree.n}")
        return 1
    identical = check_same_dendrogram(left.parents, right.parents)
    print(f"identical parent arrays: {identical}")
    print(f"heights: {left.height} vs {right.height}")
    ks = [int(x) for x in args.ks.split(",") if x.strip()]
    ks = [k for k in ks if 1 <= k <= left.tree.n]
    if ks:
        ks_arr, scores = fowlkes_mallows_curve(left.tree, right.tree, ks=ks)
        for k, s in zip(ks_arr, scores):
            print(f"B_{int(k)} (Fowlkes-Mallows at {int(k)} clusters): {s:.4f}")
    return 0


def _cmd_info(args) -> int:
    from repro.dendrogram.snapshot import SNAPSHOT_SCHEMA, load_snapshot
    from repro.io import FormatError, _open_archive
    from repro.io.edgefile import EDGEFILE_MAGIC, read_edge_header

    with open(args.path, "rb") as fh:
        is_edge_file = fh.read(len(EDGEFILE_MAGIC)) == EDGEFILE_MAGIC
    if is_edge_file:
        n, m = read_edge_header(args.path)
        print(f"{args.path}: REDG1 edge file n={n} m={m}")
        return 0
    try:
        snap = load_snapshot(args.path)
    except FormatError:
        pass  # not a snapshot: describe it as an .npz archive below
    else:
        print(f"{args.path}: {SNAPSHOT_SCHEMA} n={snap.n} nodes={snap.m} levels={snap.levels}")
        stamp = "unstamped" if snap.generation < 0 else f"generation {snap.generation}"
        print(f"  dynamic-engine stamp: {stamp}")
        return 0
    with _open_archive(args.path) as data:
        kind = str(data["kind"]) if "kind" in data else "<unknown>"
        print(f"{args.path}: kind={kind}")
        for key in data.files:
            if key == "kind":
                continue
            arr = data[key]
            print(f"  {key}: shape={arr.shape} dtype={arr.dtype}")
        if kind == "dendrogram":
            from repro.io import load_dendrogram

            dend = load_dendrogram(args.path)
            print(f"  height h = {dend.height}, root = edge {dend.root}")
    return 0


def _cmd_check(args) -> int:
    from repro.checkers.runner import DEFAULT_BOUNDS_REPORT, run_check

    return run_check(
        paths=list(args.paths) or None,
        lint=not args.no_lint,
        races=not args.no_races,
        bounds=args.bounds,
        slabs=args.slabs,
        parsafe=args.parsafe,
        json_output=args.json_output,
        bounds_report=args.bounds_report or DEFAULT_BOUNDS_REPORT,
    )


def _cmd_fuzz(args) -> int:
    from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, replay_corpus
    from repro.fuzz.runner import run_fuzz
    from repro.fuzz.selftest import run_selftest

    if args.selftest:
        report = run_selftest(seed=args.seed, shrink=not args.no_shrink)
        print("\n".join(report.format_lines()))
        return 0 if report.ok else 1

    if args.replay is not None:
        from pathlib import Path

        corpus = Path(args.replay)
        if not corpus.is_dir():
            print(f"repro fuzz: no such corpus directory: {corpus}")
            return 2
        results = replay_corpus(corpus)
        failures = 0
        for path, findings in results:
            if findings:
                failures += 1
                print(f"FAIL {path.name}: " + "; ".join(f.describe() for f in findings))
            else:
                print(f"ok   {path.name}")
        print(
            f"fuzz replay: {len(results)} entr(y/ies), {failures} regression(s)"
            if results
            else "fuzz replay: empty corpus"
        )
        return 1 if failures else 0

    corpus_dir = args.corpus if args.corpus is not None else DEFAULT_CORPUS_DIR
    domains = None
    if args.domains is not None:
        domains = [d.strip() for d in args.domains.split(",") if d.strip()]
    report = run_fuzz(
        seed=args.seed,
        budget_s=args.budget,
        max_cases=args.cases,
        corpus_dir=corpus_dir,
        domains=domains,
        shrink=not args.no_shrink,
        progress=print,
    )
    print("\n".join(report.format_lines()))
    return 0 if report.ok else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "compute": _cmd_compute,
    "cluster": _cmd_cluster,
    "bench": _cmd_bench,
    "snapshot": _cmd_snapshot,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "info": _cmd_info,
    "check": _cmd_check,
    "fuzz": _cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Exit 0 on success and 1 on findings (fuzz,
    check, bench regressions, failed self-checks); a usage error or any
    :class:`~repro.errors.ReproError` or ``OSError`` prints one
    ``repro <cmd>: ...`` line on stderr and exits 2."""
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
