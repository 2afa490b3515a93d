"""Greedy minimization of failing fuzz cases.

Given a case and a predicate (*does this case still exhibit the failure?*),
the shrinker walks a deterministic sequence of simplification attempts and
keeps every one the predicate confirms:

* **trees** -- repeatedly delete leaf vertices (relabeling the survivors
  down, so the result stays a valid tree on ``0..n-1``), then canonicalize
  weights to their ranks (small distinct integers) if the failure survives;
* **CSV** -- drop whole lines, then drop trailing cells, then substitute
  each cell with ``"0"``;
* **npz byte streams** -- truncate from the end by halves;
* **dynamic-update streams** -- drop whole batches, then single ops
  within a batch, then initial graph edges (candidates that disconnect
  the graph simply fail the predicate and are discarded);
* **MST graphs** -- drop edges, then shrink the chunk size toward 1.

Each domain in :mod:`repro.fuzz.domains` names its shrinker.

The total number of predicate evaluations is capped; within the cap the
result is minimal with respect to the moves above (no single further move
preserves the failure).  Everything is deterministic: no randomness, and
the predicate is expected to be deterministic too (the runner fixes the
relation RNG seed while shrinking).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

import numpy as np

from repro.fuzz.generators import CsvCase, DynamicCase, GraphCase, NpzCase, TreeCase
from repro.trees.weights import ranks_of

__all__ = [
    "shrink_csv_case",
    "shrink_dynamic_case",
    "shrink_graph_case",
    "shrink_npz_case",
    "shrink_tree_case",
]

#: Global cap on predicate evaluations per shrink.
MAX_PREDICATE_CALLS = 400


class _Budget:
    def __init__(self, limit: int) -> None:
        self.left = limit

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _delete_leaf(case: TreeCase, vertex: int) -> TreeCase | None:
    """Remove degree-1 ``vertex`` (and its edge); relabel survivors down."""
    edges, weights = case.edges, case.weights
    incident = np.flatnonzero((edges[:, 0] == vertex) | (edges[:, 1] == vertex))
    if incident.shape[0] != 1 or case.n <= 2:
        return None
    keep = np.ones(edges.shape[0], dtype=bool)
    keep[incident[0]] = False
    new_edges = edges[keep].copy()
    new_edges[new_edges > vertex] -= 1
    label = case.label if case.label.endswith("~shrunk") else case.label + "~shrunk"
    return TreeCase(
        n=case.n - 1,
        edges=new_edges,
        weights=weights[keep].copy(),
        label=label,
    )


def shrink_tree_case(
    case: TreeCase,
    predicate: Callable[[TreeCase], bool],
    budget: _Budget | None = None,
) -> TreeCase:
    budget = budget if budget is not None else _Budget(MAX_PREDICATE_CALLS)
    current = case
    improved = True
    while improved:
        improved = False
        # Weight canonicalization first: distinct small integers both read
        # better in the corpus and often unlock further leaf deletions.
        canon = ranks_of(current.weights).astype(np.float64)
        if not np.array_equal(canon, current.weights) and budget.spend():
            candidate = replace(current, weights=canon)
            if predicate(candidate):
                current = candidate
                improved = True
        for vertex in range(current.n):
            candidate_or_none = _delete_leaf(current, vertex)
            if candidate_or_none is None:
                continue
            if not budget.spend():
                return current
            if predicate(candidate_or_none):
                current = candidate_or_none
                improved = True
                break  # degrees changed; rescan from the smallest vertex
    return current


def shrink_csv_case(
    case: CsvCase,
    predicate: Callable[[CsvCase], bool],
    budget: _Budget | None = None,
) -> CsvCase:
    budget = budget if budget is not None else _Budget(MAX_PREDICATE_CALLS)

    def rebuild(lines: list[str]) -> CsvCase:
        return replace(case, text="\n".join(lines) + "\n" if lines else "")

    lines = case.text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    current = case
    improved = True
    while improved:
        improved = False
        for i in range(len(lines)):  # drop whole lines
            if not budget.spend():
                return current
            candidate_lines = lines[:i] + lines[i + 1 :]
            candidate = rebuild(candidate_lines)
            if predicate(candidate):
                lines, current = candidate_lines, candidate
                improved = True
                break
        if improved:
            continue
        for i, line in enumerate(lines):  # drop trailing cells
            cells = line.split(",")
            if len(cells) <= 1:
                continue
            if not budget.spend():
                return current
            candidate_lines = list(lines)
            candidate_lines[i] = ",".join(cells[:-1])
            candidate = rebuild(candidate_lines)
            if predicate(candidate):
                lines, current = candidate_lines, candidate
                improved = True
                break
        if improved:
            continue
        for i, line in enumerate(lines):  # simplify cells to "0"
            cells = line.split(",")
            for j, cell in enumerate(cells):
                if cell == "0":
                    continue
                if not budget.spend():
                    return current
                candidate_cells = list(cells)
                candidate_cells[j] = "0"
                candidate_lines = list(lines)
                candidate_lines[i] = ",".join(candidate_cells)
                candidate = rebuild(candidate_lines)
                if predicate(candidate):
                    lines, current = candidate_lines, candidate
                    improved = True
                    break
            if improved:
                break
    return current


def shrink_npz_case(
    case: NpzCase,
    predicate: Callable[[NpzCase], bool],
    budget: _Budget | None = None,
) -> NpzCase:
    budget = budget if budget is not None else _Budget(MAX_PREDICATE_CALLS)
    current = case
    while len(current.data) > 0 and budget.spend():
        candidate = replace(current, data=current.data[: len(current.data) // 2])
        if not predicate(candidate):
            break
        current = candidate
    return current


def _drop_edge(case: DynamicCase | GraphCase, i: int) -> DynamicCase | GraphCase:
    """``case`` without edge row ``i`` (and its weight)."""
    keep = np.ones(case.edges.shape[0], dtype=bool)
    keep[i] = False
    return replace(case, edges=case.edges[keep].copy(), weights=case.weights[keep].copy())


def shrink_dynamic_case(
    case: DynamicCase,
    predicate: Callable[[DynamicCase], bool],
    budget: _Budget | None = None,
) -> DynamicCase:
    budget = budget if budget is not None else _Budget(MAX_PREDICATE_CALLS)
    current = case
    improved = True
    while improved:
        improved = False
        for i in range(len(current.batches)):  # drop whole batches
            if not budget.spend():
                return current
            candidate = replace(
                current, batches=current.batches[:i] + current.batches[i + 1 :]
            )
            if predicate(candidate):
                current = candidate
                improved = True
                break
        if improved:
            continue
        for i, (ins, dels) in enumerate(current.batches):  # drop single ops
            for j in range(len(ins)):
                if not budget.spend():
                    return current
                batches = list(current.batches)
                batches[i] = (ins[:j] + ins[j + 1 :], dels)
                candidate = replace(current, batches=tuple(batches))
                if predicate(candidate):
                    current = candidate
                    improved = True
                    break
            if improved:
                break
            for j in range(len(dels)):
                if not budget.spend():
                    return current
                batches = list(current.batches)
                batches[i] = (ins, dels[:j] + dels[j + 1 :])
                candidate = replace(current, batches=tuple(batches))
                if predicate(candidate):
                    current = candidate
                    improved = True
                    break
            if improved:
                break
        if improved:
            continue
        for i in range(current.edges.shape[0]):  # drop initial edges
            if not budget.spend():
                return current
            candidate = _drop_edge(current, i)
            if predicate(candidate):
                current = candidate
                improved = True
                break
    return current


def shrink_graph_case(
    case: GraphCase,
    predicate: Callable[[GraphCase], bool],
    budget: _Budget | None = None,
) -> GraphCase:
    """Drop edges, then shrink the chunk size toward 1.

    Candidates that disconnect the graph are rejected by the predicate
    itself (the MST oracle skips non-spanning inputs), so no explicit
    connectivity guard is needed here.
    """
    budget = budget if budget is not None else _Budget(MAX_PREDICATE_CALLS)
    current = case
    improved = True
    while improved:
        improved = False
        for i in range(current.edges.shape[0]):
            if not budget.spend():
                return current
            candidate = _drop_edge(current, i)
            if predicate(candidate):
                current = candidate
                improved = True
                break
    for chunk in (1, 2, current.chunk // 2):
        if chunk < 1 or chunk == current.chunk:
            continue
        if not budget.spend():
            return current
        candidate = replace(current, chunk=chunk)
        if predicate(candidate):
            current = candidate
            break
    return current
