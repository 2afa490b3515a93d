"""Differential oracles: algorithms vs. the brute-force SLD, io vs. a
reference parser.

The dendrogram of a weighted tree is *unique* under the package's
deterministic ``(weight, edge id)`` tie-breaking, so every algorithm must
return the exact parent array the definitional
:func:`~repro.core.brute.brute_force_sld` oracle computes -- byte-for-byte
agreement, not just isomorphism.  That makes the differential check a
single comparison per algorithm and (transitively) a pairwise cross-check
of all of them.

For the io layer there is no definitional oracle, so
:func:`reference_parse_csv` reimplements the documented
``load_edges_csv`` contract from scratch (plain string splitting, no csv
module, no shared helpers); any behavioral difference -- acceptance,
values, or a leaked non-:class:`~repro.io.FormatError` exception -- is a
finding.  This is the harness that caught the header-skip and
``ValueError``-leak bugs fixed alongside it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
import io as _stdio
import os
import tempfile
from typing import Any

import numpy as np

from repro.core.api import ALGORITHMS, resolve_algorithm
from repro.core.brute import brute_force_sld
from repro.core.paruf_threaded import paruf_threaded
from repro.errors import (
    InvalidGraphError,
    InvalidWeightsError,
    NotConnectedError,
    ReproError,
)
from repro.fuzz.generators import CsvCase, DynamicCase, GraphCase, NpzCase, TreeCase

__all__ = [
    "FUZZ_ALGORITHMS",
    "Finding",
    "differential_check",
    "dynamic_check",
    "io_csv_check",
    "io_npz_check",
    "mst_check",
    "reference_parse_csv",
]


@dataclass
class Finding:
    """One observed divergence/crash, tied to the case that triggered it.

    ``check`` and ``message`` are deterministic functions of the case (no
    timestamps, addresses, or schedule-dependent detail) so corpus entries
    are byte-stable across runs.
    """

    check: str
    message: str
    case: Any

    def describe(self) -> str:
        label = getattr(self.case, "label", "")
        return f"{self.check}: {self.message}" + (f" [{label}]" if label else "")


def _differential_algorithms() -> dict[str, Callable[..., np.ndarray]]:
    algorithms: dict[str, Callable[..., np.ndarray]] = {}
    for name, fn in ALGORITHMS.items():
        if name in ("brute", "cartesian"):  # the oracle itself; path inputs only
            continue
        algorithms[name] = fn
        twin = resolve_algorithm(name, "auto")
        if twin is not fn:
            algorithms[twin.__name__] = twin
    algorithms["paruf-threaded"] = partial(paruf_threaded, num_threads=4)
    return algorithms


#: Algorithms under differential test: what the registry dispatches --
#: every :data:`~repro.core.api.ALGORITHMS` entry and every array twin
#: (named by its function, e.g. ``sequf_fast``) -- except the brute
#: oracle and the path-only ``cartesian``, plus the genuinely threaded
#: ParUF variant, which the registry omits because it takes no tracker.
#: The fuzzer calls these tracker-less, which is exactly the configuration
#: where the array twins take their batched paths instead of delegating
#: to the reference.
FUZZ_ALGORITHMS = _differential_algorithms()


def differential_check(
    case: TreeCase, algorithms: dict[str, Callable[..., np.ndarray]] | None = None
) -> list[Finding]:
    """Run every algorithm on the case and compare against the brute oracle."""
    tree = case.tree()
    expected = brute_force_sld(tree)
    findings: list[Finding] = []
    for name, fn in (algorithms if algorithms is not None else FUZZ_ALGORITHMS).items():
        try:
            got = fn(tree)
        except Exception as exc:
            findings.append(
                Finding(
                    check=f"differential:{name}",
                    message=f"crashed with {type(exc).__name__}",
                    case=case,
                )
            )
            continue
        if not np.array_equal(np.asarray(got), expected):
            findings.append(
                Finding(
                    check=f"differential:{name}",
                    message="parent array differs from the brute-force oracle",
                    case=case,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# MST oracles: array Boruvka + streaming Kruskal vs. in-memory Kruskal
# ---------------------------------------------------------------------------

#: Streaming-engine signature for :func:`mst_check` (the selftest's
#: streaming mutant replaces it; production runs use the real engine).
StreamingFn = Callable[[str, int], "tuple[int, np.ndarray]"]


def mst_check(case: GraphCase, streaming_fn: StreamingFn | None = None) -> list[Finding]:
    """Differential check of the fast MST engines on one graph case.

    In-memory :func:`~repro.trees.mst.kruskal_mst` is the oracle (its
    scan order *defines* the rank-unique MST).  Against it:

    * the array-backend Boruvka must select the identical edge set;
    * streaming Kruskal over a round-tripped REDG1 file, at the case's
      chunk size, must return the identical id sequence (it promises
      bit-identity, so order is compared too).

    A non-finding exception from the oracle itself (e.g. the shrinker
    disconnected the graph) skips the case instead of reporting.
    """
    from repro.io.edgefile import write_edge_file
    from repro.trees.boruvka import boruvka_mst
    from repro.trees.mst import kruskal_mst, streaming_kruskal_mst

    if streaming_fn is None:
        streaming_fn = lambda path, chunk: streaming_kruskal_mst(path, chunk=chunk)  # noqa: E731

    try:
        expected = kruskal_mst(case.n, case.edges, case.weights)
    except ReproError:
        return []  # shrunk/degenerate case outside the engines' contract
    findings: list[Finding] = []

    try:
        got = boruvka_mst(case.n, case.edges, case.weights, backend="array")
        if not np.array_equal(np.sort(got), np.sort(expected)):
            findings.append(
                Finding(
                    check="mst:boruvka-array",
                    message="array-backend Boruvka edge set differs from Kruskal",
                    case=case,
                )
            )
    except Exception as exc:
        findings.append(
            Finding(
                check="mst:boruvka-array",
                message=f"crashed with {type(exc).__name__}",
                case=case,
            )
        )

    fd, path = tempfile.mkstemp(suffix=".redg")
    try:
        os.close(fd)
        write_edge_file(path, case.n, case.edges, case.weights)
        try:
            got_n, got_ids = streaming_fn(path, case.chunk)
            if got_n != case.n or not np.array_equal(np.asarray(got_ids), expected):
                findings.append(
                    Finding(
                        check="mst:streaming",
                        message=(
                            "streaming Kruskal output differs from in-memory Kruskal"
                            f" at chunk={case.chunk}"
                        ),
                        case=case,
                    )
                )
        except Exception as exc:
            findings.append(
                Finding(
                    check="mst:streaming",
                    message=f"crashed with {type(exc).__name__} at chunk={case.chunk}",
                    case=case,
                )
            )
    finally:
        os.unlink(path)
    return findings


# ---------------------------------------------------------------------------
# Reference CSV parser (independent reimplementation of the io contract)
# ---------------------------------------------------------------------------


def reference_parse_csv(
    text: str, has_header: bool | None
) -> tuple[str, tuple[int, list[tuple[int, int]], list[float]] | str]:
    """Parse edge-list CSV text by the documented contract, from scratch.

    Returns ``("ok", (n, edges, weights))`` or ``("error", reason)`` where
    ``reason`` is a stable tag (``short-row``, ``bad-int``, ``bad-float``,
    ``nonfinite-weight``, ``negative-id``, ``self-loop``, ``duplicate-edge``,
    ``no-edges``).  Quote-free inputs only (the generator guarantees this),
    so naive comma splitting matches the csv module's tokenization.
    """
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    seen: set[tuple[int, int]] = set()
    first = True
    for line in text.split("\n"):
        line = line.rstrip("\r")
        cells = line.split(",")
        if len(cells) == 1 and not cells[0].strip():
            continue  # blank row
        if first:
            first = False
            if has_header:
                continue
            if has_header is None:
                try:
                    int(cells[0])
                except ValueError:
                    continue  # auto-detected header
        if len(cells) < 2:
            return "error", "short-row"
        try:
            u, v = int(cells[0]), int(cells[1])
        except ValueError:
            return "error", "bad-int"
        if u < 0 or v < 0:
            return "error", "negative-id"
        if u == v:
            return "error", "self-loop"
        w = 1.0
        if len(cells) >= 3 and cells[2].strip():
            try:
                w = float(cells[2])
            except ValueError:
                return "error", "bad-float"
            if w != w or w in (float("inf"), float("-inf")):
                return "error", "nonfinite-weight"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return "error", "duplicate-edge"
        seen.add(key)
        edges.append((u, v))
        weights.append(w)
    if not edges:
        return "error", "no-edges"
    n = max(max(u, v) for u, v in edges) + 1
    return "ok", (n, edges, weights)


LoadEdgesCsv = Callable[..., tuple[int, np.ndarray, np.ndarray]]


def io_csv_check(case: CsvCase, loader: LoadEdgesCsv | None = None) -> list[Finding]:
    """Differential + contract check of ``load_edges_csv`` on one case.

    Properties enforced:

    * the loader raises :class:`~repro.io.FormatError` -- never any other
      exception -- exactly when the reference parser rejects;
    * on acceptance, ``(n, edges, weights)`` match the reference exactly.
    """
    from repro.io import FormatError, load_edges_csv

    fn = loader if loader is not None else load_edges_csv
    verdict, payload = reference_parse_csv(case.text, case.has_header)
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(case.text)
        try:
            n, edges, weights = fn(path, has_header=case.has_header)
            outcome = "ok"
        except FormatError:
            outcome = "rejected"
        except Exception as exc:
            return [
                Finding(
                    check="io:csv:exception-leak",
                    message=f"loader leaked {type(exc).__name__} instead of FormatError",
                    case=case,
                )
            ]
    finally:
        os.unlink(path)
    if verdict == "error":
        if outcome != "rejected":
            return [
                Finding(
                    check="io:csv:accepted-malformed",
                    message=f"loader accepted input the contract rejects ({payload})",
                    case=case,
                )
            ]
        return []
    assert not isinstance(payload, str)
    ref_n, ref_edges, ref_weights = payload
    if outcome == "rejected":
        return [
            Finding(
                check="io:csv:rejected-wellformed",
                message="loader rejected input the contract accepts",
                case=case,
            )
        ]
    same = (
        n == ref_n
        and edges.shape == (len(ref_edges), 2)
        and np.array_equal(edges, np.asarray(ref_edges, dtype=np.int64).reshape(-1, 2))
        and np.array_equal(weights, np.asarray(ref_weights, dtype=np.float64))
    )
    if not same:
        return [
            Finding(
                check="io:csv:result-mismatch",
                message="loader output differs from the reference parser",
                case=case,
            )
        ]
    return []


# ---------------------------------------------------------------------------
# Dynamic-vs-recompute oracle (shadow graph model)
# ---------------------------------------------------------------------------


def _connected(n: int, pairs: "list[tuple[int, int]]") -> bool:
    """Union-find connectivity of the shadow graph."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def _predict_batch(
    n: int,
    graph: dict[tuple[int, int], float],
    inserts: tuple[tuple[int, int, float], ...],
    deletes: tuple[tuple[int, int], ...],
) -> tuple[type | None, dict[tuple[int, int], float]]:
    """Replay one batch on the shadow graph, in the engine's documented
    order: full upfront validation, then inserts, then deletes, where a
    delete fails exactly when removal disconnects the current graph.

    Returns ``(expected_error_type, resulting_graph)``; the graph is the
    pre-batch one whenever an error is expected (whole-batch rollback).
    """
    seen_ins: set[tuple[int, int]] = set()
    for u, v, w in inserts:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return InvalidGraphError, graph
        if not np.isfinite(w):
            return InvalidWeightsError, graph
        key = (u, v) if u < v else (v, u)
        if key in seen_ins:
            return ValueError, graph
        seen_ins.add(key)
    seen_dels: set[tuple[int, int]] = set()
    for u, v in deletes:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return InvalidGraphError, graph
        key = (u, v) if u < v else (v, u)
        if key in seen_dels:
            return ValueError, graph
        seen_dels.add(key)
    g = dict(graph)
    for u, v, w in inserts:
        key = (u, v) if u < v else (v, u)
        if key in g:
            return ValueError, graph
        g[key] = w
    for u, v in deletes:
        key = (u, v) if u < v else (v, u)
        if key not in g:
            return ValueError, graph
        del g[key]
        if not _connected(n, list(g)):
            return NotConnectedError, graph
    return None, g


def dynamic_check(
    case: DynamicCase,
    engine_factory: Callable[[int, np.ndarray, np.ndarray], object] | None = None,
) -> list[Finding]:
    """Differential check of the batch-dynamic engine vs. recompute.

    A *shadow model* tracks only the plain edge set -- it knows nothing
    about MSTs, reserves, or dendrograms -- and predicts, per batch,
    whether the engine must succeed or raise (and which error type).  On
    success the maintained state is compared against from-scratch
    recomputation: the parent array must be bit-identical to ``sequf`` on
    the maintained tree, the ranks to a full ``ranks_of`` re-sort, the
    tree's weight multiset to a fresh Kruskal MST of the shadow graph, and
    the ``generation`` counter must be monotone.  On a predicted error the
    engine must raise exactly that type and roll the whole batch back.
    """
    from repro.core.dynamic import DynamicSLD
    from repro.trees.mst import kruskal_mst
    from repro.trees.weights import ranks_of

    factory = engine_factory if engine_factory is not None else DynamicSLD.from_graph

    def fail(check: str, message: str) -> list[Finding]:
        return [Finding(check=check, message=message, case=case)]

    shadow: dict[tuple[int, int], float] = {}
    dup = False
    for (u, v), w in zip(case.edges.tolist(), case.weights.tolist()):
        key = (u, v) if u < v else (v, u)
        dup = dup or key in shadow
        shadow[key] = float(w)
    init_ok = not dup and _connected(case.n, list(shadow))
    try:
        dyn = factory(case.n, case.edges, case.weights)
    except (InvalidGraphError, NotConnectedError):
        if init_ok:
            return fail("dynamic:init", "engine rejected a valid connected graph")
        return []  # shrunk/degenerate case; correctly rejected
    except Exception as exc:
        return fail("dynamic:init", f"engine construction crashed with {type(exc).__name__}")
    if not init_ok:
        return fail("dynamic:init", "engine accepted an invalid initial graph")

    last_generation = int(dyn.generation)  # type: ignore[attr-defined]
    for idx, (inserts, deletes) in enumerate(case.batches):
        expected_error, shadow = _predict_batch(case.n, shadow, inserts, deletes)
        before = (
            dyn.graph_weights(),  # type: ignore[attr-defined]
            dyn.parents.copy(),  # type: ignore[attr-defined]
            int(dyn.generation),  # type: ignore[attr-defined]
        )
        try:
            dyn.apply_batch(inserts, deletes)  # type: ignore[attr-defined]
            raised: type | None = None
        except Exception as exc:
            raised = type(exc)
        if expected_error is not None:
            if raised is not expected_error:
                got = "no error" if raised is None else raised.__name__
                return fail(
                    "dynamic:error-contract",
                    f"batch {idx}: expected {expected_error.__name__}, got {got}",
                )
            after = (
                dyn.graph_weights(),  # type: ignore[attr-defined]
                dyn.parents.copy(),  # type: ignore[attr-defined]
                int(dyn.generation),  # type: ignore[attr-defined]
            )
            if (
                after[0] != before[0]
                or not np.array_equal(after[1], before[1])
                or after[2] != before[2]
            ):
                return fail(
                    "dynamic:rollback", f"batch {idx}: failed batch left state changed"
                )
            continue
        if raised is not None:
            return fail(
                "dynamic:error-contract",
                f"batch {idx}: raised {raised.__name__} on a valid batch",
            )
        if dyn.graph_weights() != shadow:  # type: ignore[attr-defined]
            return fail(
                "dynamic:graph-drift",
                f"batch {idx}: maintained edge set differs from the shadow graph",
            )
        tree = dyn.tree()  # type: ignore[attr-defined]
        expected = brute_force_sld(tree) if tree.m <= 64 else None
        from repro.core.sequf import sequf

        recomputed = sequf(tree)
        if not np.array_equal(dyn.parents, recomputed):  # type: ignore[attr-defined]
            return fail(
                "dynamic:vs-recompute",
                f"batch {idx}: parent array differs from recompute-from-scratch",
            )
        if expected is not None and not np.array_equal(recomputed, expected):
            return fail(
                "dynamic:vs-recompute",
                f"batch {idx}: recompute disagrees with the brute-force oracle",
            )
        if not np.array_equal(dyn.ranks, ranks_of(tree.weights)):  # type: ignore[attr-defined]
            return fail(
                "dynamic:ranks",
                f"batch {idx}: incremental ranks differ from a full re-sort",
            )
        ge = np.asarray(sorted(shadow), dtype=np.int64).reshape(-1, 2)
        gw = np.asarray([shadow[(int(a), int(b))] for a, b in ge.tolist()], dtype=np.float64)
        mst = kruskal_mst(case.n, ge, gw)
        if not np.array_equal(np.sort(tree.weights), np.sort(gw[mst])):
            return fail(
                "dynamic:mst-weight",
                f"batch {idx}: maintained tree is not a minimum spanning tree",
            )
        generation = int(dyn.generation)  # type: ignore[attr-defined]
        if generation < last_generation:
            return fail(
                "dynamic:generation", f"batch {idx}: generation counter went backwards"
            )
        last_generation = generation
    return []


def io_npz_check(case: NpzCase) -> list[Finding]:
    """Contract check of the ``.npz`` loaders on arbitrary bytes.

    ``load_tree`` must either return a tree or raise a
    :class:`~repro.errors.ReproError` (:class:`~repro.io.FormatError` for
    non-archives); any other exception escaping is a finding.
    """
    from repro.io import load_tree

    try:
        load_tree(_stdio.BytesIO(case.data))
    except ReproError:
        pass
    except Exception as exc:
        return [
            Finding(
                check="io:npz:exception-leak",
                message=f"load_tree leaked {type(exc).__name__} instead of a ReproError",
                case=case,
            )
        ]
    return []
