"""Deterministic adversarial input generation for the fuzzer.

One case type and one generator per domain (the registry that wires them
to their checks lives in :mod:`repro.fuzz.domains`):

* :class:`TreeCase` -- a weighted tree drawn from the topology families the
  paper evaluates on (path/star/knuth/...) crossed with adversarial weight
  families (duplicates, near-duplicates one ulp apart, denormals,
  inf-adjacent magnitudes, mixed signs);
* :class:`CsvCase` -- edge-list CSV text assembled from a vocabulary of
  hostile cells (words, floats in id columns, negatives, empties, self
  loops, duplicate rows) plus a valid-graph mode so the accept path is
  differentially checked too;
* :class:`NpzCase` -- ``.npz`` byte streams: genuine archives that are
  truncated or bit-flipped, wrong-kind archives, and raw noise.
* :class:`DynamicCase` -- a connected graph (topology-family tree plus
  extra non-tree edges) and a sequence of insert/delete batches for the
  batch-dynamic engine; the op stream deliberately includes invalid ops
  (duplicate inserts, missing deletes, disconnecting deletes) so the
  error-and-rollback contract is fuzzed alongside the happy path.
* :class:`GraphCase` -- a connected weighted graph plus a streaming chunk
  size for the MST oracles (array-backend Boruvka and out-of-core
  streaming Kruskal vs. in-memory Kruskal); chunk sizes concentrate on
  the boundary values (1, 2, ``m - 1``, ``m``, power-of-two neighbors)
  where the filter-window boundary bugs live.

Everything is a pure function of the :class:`numpy.random.Generator` it is
handed; :func:`case_rng` derives one Generator per ``(seed, index)`` via
``SeedSequence`` so the case stream is reproducible and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import io as _stdio

import numpy as np

from repro.trees.generators import (
    balanced_binary,
    broom,
    caterpillar,
    knuth_tree,
    path_tree,
    random_tree,
    star_tree,
)
from repro.trees.wtree import WeightedTree

__all__ = [
    "TOPOLOGY_FAMILIES",
    "WEIGHT_FAMILIES",
    "CsvCase",
    "DynamicCase",
    "GraphCase",
    "NpzCase",
    "TreeCase",
    "case_rng",
    "gen_csv_case",
    "gen_dynamic_case",
    "gen_graph_case",
    "gen_npz_case",
    "gen_tree_case",
]


@dataclass
class TreeCase:
    """A weighted-tree fuzz input (always a structurally valid tree)."""

    n: int
    edges: np.ndarray
    weights: np.ndarray
    label: str = ""

    def tree(self) -> WeightedTree:
        return WeightedTree(self.n, self.edges, self.weights, validate=False)


@dataclass
class CsvCase:
    """Raw CSV text plus the ``has_header`` argument to load it with."""

    text: str
    has_header: bool | None = None
    label: str = ""


@dataclass
class NpzCase:
    """Raw bytes presented to the ``.npz`` loaders."""

    data: bytes = field(repr=False)
    label: str = ""


#: One batch: ``(inserts, deletes)`` with inserts ``(u, v, w)`` and
#: deletes ``(u, v)``, all plain python scalars (hashable, serializable).
DynamicBatch = tuple[tuple[tuple[int, int, float], ...], tuple[tuple[int, int], ...]]


@dataclass
class DynamicCase:
    """A connected graph plus insert/delete batches for the dynamic engine.

    The initial graph is always valid and connected; the batches are *not*
    guaranteed valid -- ops may reference absent edges or disconnect the
    graph, exercising the documented error-and-rollback contract.
    """

    n: int
    edges: np.ndarray  # (m0, 2) initial graph (connected, duplicate-free)
    weights: np.ndarray  # (m0,) initial weights
    batches: tuple[DynamicBatch, ...]
    label: str = ""


@dataclass
class GraphCase:
    """A connected weighted graph plus a streaming chunk size.

    Input domain of the MST oracles: the graph is always connected and
    duplicate-free (the invalid-input surface belongs to the io domain);
    ``chunk`` parameterizes the out-of-core path's filter windows and reads.
    """

    n: int
    edges: np.ndarray  # (m, 2) undirected edges, connected, no duplicates
    weights: np.ndarray  # (m,) float64
    chunk: int
    label: str = ""


def case_rng(seed: int, index: int) -> np.random.Generator:
    """The Generator for case ``index`` of a run with ``seed``."""
    # SeedSequence entropy must be non-negative; fold negative seeds in.
    return np.random.default_rng(np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, index)))


# ---------------------------------------------------------------------------
# Tree cases
# ---------------------------------------------------------------------------

TOPOLOGY_FAMILIES = ("path", "star", "caterpillar", "broom", "binary", "knuth", "random")

#: Weight families; each entry maps ``(rng, m) -> float64 array``.  The
#: adversarial ones target tie-breaking (duplicates / near-duplicates one
#: ulp apart / all-equal) and float-range handling (denormals, magnitudes
#: adjacent to ``inf``, mixed signs).
WEIGHT_FAMILIES = {
    "perm": lambda rng, m: rng.permutation(m).astype(np.float64),
    "uniform": lambda rng, m: rng.random(m),
    "duplicates": lambda rng, m: rng.integers(0, max(2, m // 3 + 1), m).astype(np.float64),
    "all-equal": lambda rng, m: np.ones(m, dtype=np.float64),
    "near-duplicate": lambda rng, m: 1.0
    + rng.integers(0, 3, m).astype(np.float64) * np.finfo(np.float64).eps,
    "denormal": lambda rng, m: np.float64(5e-324) * rng.integers(1, 16, m).astype(np.float64),
    "huge": lambda rng, m: np.finfo(np.float64).max * (0.25 + 0.5 * rng.random(m)),
    "mixed-sign": lambda rng, m: rng.choice(
        np.array([-1e308, -1.0, -5e-324, 0.0, 5e-324, 1.0, 1e308]), size=m
    ),
    "sorted": lambda rng, m: np.sort(rng.random(m)),
    "reversed": lambda rng, m: np.sort(rng.random(m))[::-1].copy(),
}


def _make_topology(kind: str, n: int, rng: np.random.Generator) -> WeightedTree:
    if kind == "path":
        return path_tree(n)
    if kind == "star":
        return star_tree(n, center=int(rng.integers(n)))
    if kind == "caterpillar":
        return caterpillar(n, spine=int(rng.integers(1, n + 1)))
    if kind == "broom":
        return broom(n, handle=int(rng.integers(n)))
    if kind == "binary":
        return balanced_binary(n)
    if kind == "knuth":
        return knuth_tree(n, seed=rng)
    if kind == "random":
        return random_tree(n, seed=rng)
    raise ValueError(f"unknown topology family {kind!r}")


def gen_tree_case(rng: np.random.Generator, max_n: int = 32) -> TreeCase:
    """Draw one adversarial weighted tree (small enough for the O(n^2) oracle)."""
    n = int(rng.integers(2, max_n + 1))
    topo = TOPOLOGY_FAMILIES[int(rng.integers(len(TOPOLOGY_FAMILIES)))]
    wnames = sorted(WEIGHT_FAMILIES)
    wname = wnames[int(rng.integers(len(wnames)))]
    tree = _make_topology(topo, n, rng)
    weights = WEIGHT_FAMILIES[wname](rng, tree.m)
    return TreeCase(
        n=tree.n,
        edges=tree.edges,
        weights=np.asarray(weights, dtype=np.float64),
        label=f"{topo}/{wname}/n={n}",
    )


# ---------------------------------------------------------------------------
# Dynamic-update cases
# ---------------------------------------------------------------------------


def gen_dynamic_case(rng: np.random.Generator, max_n: int = 16) -> DynamicCase:
    """Draw one batched-update stream over a small connected graph.

    The base graph is a topology-family tree plus a few extra (non-tree)
    edges, weighted from one adversarial family.  Batches are built
    against a *predicted* edge membership that assumes every batch
    applies; when an earlier batch actually rolls back (disconnecting
    delete) or rejects (invalid op), later batches drift into invalid-op
    territory -- which is exactly the error-contract coverage we want.
    """
    base = gen_tree_case(rng, max_n=max_n)
    n = base.n
    member = {
        (min(int(u), int(v)), max(int(u), int(v))) for u, v in base.edges.tolist()
    }
    wnames = sorted(WEIGHT_FAMILIES)
    wname = wnames[int(rng.integers(len(wnames)))]
    extra: list[tuple[int, int]] = []
    for _ in range(3 * int(rng.integers(0, 5))):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        key = (min(u, v), max(u, v))
        if u == v or key in member:
            continue
        member.add(key)
        extra.append(key)
    extra_arr = np.asarray(extra, dtype=np.int64).reshape(len(extra), 2)
    extra_w = np.asarray(WEIGHT_FAMILIES[wname](rng, len(extra)), dtype=np.float64)
    edges = np.concatenate([base.edges, extra_arr], axis=0)
    weights = np.concatenate([base.weights, extra_w])

    batches: list[DynamicBatch] = []
    for _ in range(int(rng.integers(1, 5))):
        inserts: list[tuple[int, int, float]] = []
        for _ in range(int(rng.integers(0, 4))):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            # Mostly fresh pairs; occasionally a knowingly-present pair to
            # exercise the "already in the graph" rejection + rollback.
            if key in member and rng.random() < 0.85:
                continue
            if any(key == (min(a, b), max(a, b)) for a, b, _ in inserts):
                continue
            w = float(np.asarray(WEIGHT_FAMILIES[wname](rng, 1), dtype=np.float64)[0])
            inserts.append((u, v, w))
            member.add(key)
        deletes: list[tuple[int, int]] = []
        avail = sorted(member)
        for _ in range(int(rng.integers(0, 3))):
            if avail and rng.random() < 0.9:
                key = avail.pop(int(rng.integers(len(avail))))
            else:
                # a possibly-absent pair: exercises "not in the graph"
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                if key in deletes:
                    continue
            deletes.append(key)
            member.discard(key)
        batches.append((tuple(inserts), tuple(deletes)))
    return DynamicCase(
        n=n,
        edges=edges,
        weights=weights,
        batches=tuple(batches),
        label=f"dynamic/{base.label}/extras={len(extra)}/batches={len(batches)}",
    )


# ---------------------------------------------------------------------------
# Graph cases (MST oracles)
# ---------------------------------------------------------------------------


def gen_graph_case(rng: np.random.Generator, max_n: int = 24) -> GraphCase:
    """Draw one connected weighted graph plus a boundary-biased chunk size."""
    base = gen_tree_case(rng, max_n=max_n)
    n = base.n
    seen = {(min(int(u), int(v)), max(int(u), int(v))) for u, v in base.edges.tolist()}
    extra: list[tuple[int, int]] = []
    budget = int(rng.integers(0, 2 * n + 1))
    for _ in range(3 * budget):
        if len(extra) >= budget:
            break
        u, v = int(rng.integers(n)), int(rng.integers(n))
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        extra.append(key)
    extra_arr = np.asarray(extra, dtype=np.int64).reshape(len(extra), 2)
    edges = np.concatenate([base.edges, extra_arr], axis=0)
    wnames = sorted(WEIGHT_FAMILIES)
    wname = wnames[int(rng.integers(len(wnames)))]
    weights = np.asarray(WEIGHT_FAMILIES[wname](rng, edges.shape[0]), dtype=np.float64)
    m = edges.shape[0]
    pow2 = 1 << (max(1, m).bit_length() - 1)
    boundary = (1, 2, max(1, m - 1), m, m + 1, max(1, pow2 - 1), pow2, pow2 + 1)
    if rng.random() < 0.75:
        chunk = int(boundary[int(rng.integers(len(boundary)))])
    else:
        chunk = int(rng.integers(1, m + 2))
    return GraphCase(
        n=n,
        edges=edges,
        weights=weights,
        chunk=chunk,
        label=f"graph/{base.label}/extras={len(extra)}/chunk={chunk}",
    )


# ---------------------------------------------------------------------------
# CSV cases
# ---------------------------------------------------------------------------

_ID_CELLS = ("0", "1", "2", "3", "4", "5", "6", "-1", "1.0", "x", "", " 2", "3 ", "nan", "1e3")
_WEIGHT_CELLS = ("0.5", "1", "2.5", "-3.0", "", "inf", "nan", "w", "1e300", "1e400")
_HEADER_LINES = ("source,target,weight", "u,v", "a,b,c,d", "0,1,weight")


def _gen_valid_csv(rng: np.random.Generator) -> str:
    """A well-formed edge list: distinct non-loop edges, parseable cells."""
    n = int(rng.integers(2, 9))
    rows = []
    pairs: set[tuple[int, int]] = set()
    for _ in range(int(rng.integers(1, 10))):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in pairs:
            continue
        pairs.add(key)
        if rng.random() < 0.7:
            rows.append(f"{u},{v},{float(rng.integers(1, 8)) / 2}")
        else:
            rows.append(f"{u},{v}")
    return "\n".join(rows) + ("\n" if rows and rng.random() < 0.8 else "")


def _gen_hostile_csv(rng: np.random.Generator) -> str:
    """Token soup over the hostile cell vocabulary (quote-free by design,
    so the independent reference parser and the csv module agree on
    tokenization)."""
    lines = []
    if rng.random() < 0.3:
        lines.append(_HEADER_LINES[int(rng.integers(len(_HEADER_LINES)))])
    for _ in range(int(rng.integers(0, 6))):
        roll = rng.random()
        if roll < 0.1:
            lines.append("")  # blank line
        elif roll < 0.18:
            lines.append(_ID_CELLS[int(rng.integers(len(_ID_CELLS)))])  # short row
        else:
            u = _ID_CELLS[int(rng.integers(len(_ID_CELLS)))]
            v = _ID_CELLS[int(rng.integers(len(_ID_CELLS)))]
            if rng.random() < 0.6:
                w = _WEIGHT_CELLS[int(rng.integers(len(_WEIGHT_CELLS)))]
                lines.append(f"{u},{v},{w}")
            else:
                lines.append(f"{u},{v}")
    return "\n".join(lines) + ("\n" if lines and rng.random() < 0.8 else "")


def gen_csv_case(rng: np.random.Generator) -> CsvCase:
    """Draw one CSV input; roughly half valid, half hostile."""
    valid = rng.random() < 0.5
    text = _gen_valid_csv(rng) if valid else _gen_hostile_csv(rng)
    has_header = (None, True, False)[int(rng.integers(3))]
    return CsvCase(
        text=text,
        has_header=has_header,
        label=f"csv/{'valid' if valid else 'hostile'}/header={has_header}",
    )


# ---------------------------------------------------------------------------
# npz cases
# ---------------------------------------------------------------------------


def _valid_tree_npz(rng: np.random.Generator) -> bytes:
    from repro.io import save_tree  # local import to avoid a cycle at import time

    case = gen_tree_case(rng, max_n=12)
    buf = _stdio.BytesIO()
    save_tree(buf, case.tree())
    return buf.getvalue()


def gen_npz_case(rng: np.random.Generator) -> NpzCase:
    """Draw one byte stream for the ``.npz`` loader contract check."""
    roll = rng.random()
    if roll < 0.25:
        return NpzCase(data=rng.bytes(int(rng.integers(0, 200))), label="npz/noise")
    if roll < 0.5:
        blob = _valid_tree_npz(rng)
        cut = int(rng.integers(0, len(blob)))
        return NpzCase(data=blob[:cut], label="npz/truncated")
    if roll < 0.75:
        blob = bytearray(_valid_tree_npz(rng))
        pos = int(rng.integers(len(blob)))
        blob[pos] ^= 1 << int(rng.integers(8))
        return NpzCase(data=bytes(blob), label="npz/bitflip")
    return NpzCase(data=_valid_tree_npz(rng), label="npz/valid")
