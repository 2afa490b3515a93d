"""Structural validation of tree and graph inputs.

Raises the typed exceptions from :mod:`repro.errors` with messages that name
the first offending edge/vertex, so pipeline failures are diagnosable.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidGraphError, InvalidTreeError, InvalidWeightsError

__all__ = ["check_graph", "validate_tree_edges", "validate_weights"]


def check_graph(n: int, edges: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A graph's ``(edges, weights)`` as int64/float64 arrays, checked.

    Raises :class:`~repro.errors.InvalidGraphError` unless ``edges`` is
    ``(m, 2)`` with endpoints in ``[0, n)`` and no self loops, and
    ``weights`` holds one finite weight per edge.
    """
    edges = np.asarray(edges, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if edges.ndim != 2 or (edges.size and edges.shape[1] != 2):
        raise InvalidGraphError(f"edges must have shape (m, 2), got {edges.shape}")
    if weights.shape != (edges.shape[0],):
        raise InvalidGraphError("need exactly one weight per edge")
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise InvalidGraphError(f"edge endpoints must lie in [0, {n})")
        if (edges[:, 0] == edges[:, 1]).any():
            raise InvalidGraphError("self loops are not allowed")
    if not np.isfinite(weights).all():
        raise InvalidGraphError("weights must be finite")
    return edges, weights


def validate_tree_edges(n: int, edges: np.ndarray) -> None:
    """Verify that ``edges`` is a spanning tree of ``{0..n-1}``.

    Checks, in order: vertex-count sanity, edge cardinality ``n-1``,
    endpoint range, self loops, duplicate edges, and acyclicity/connectivity
    (via a union-find sweep -- ``n-1`` acyclic edges on ``n`` vertices are
    necessarily spanning).
    """
    if n <= 0:
        raise InvalidTreeError(f"vertex count must be positive, got {n}")
    edges = np.asarray(edges, dtype=np.int64)
    m = edges.shape[0]
    if m != n - 1:
        raise InvalidTreeError(f"a tree on {n} vertices needs {n - 1} edges, got {m}")
    if m == 0:
        return
    if edges.min() < 0 or edges.max() >= n:
        bad = int(np.argmax((edges < 0).any(axis=1) | (edges >= n).any(axis=1)))
        raise InvalidTreeError(f"edge {bad} = {tuple(edges[bad])} has endpoint outside [0, {n})")
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        bad = int(np.argmax(loops))
        raise InvalidTreeError(f"edge {bad} is a self loop at vertex {edges[bad, 0]}")
    canon = np.sort(edges, axis=1)
    keys = canon[:, 0] * np.int64(n) + canon[:, 1]
    uniq, counts = np.unique(keys, return_counts=True)
    if (counts > 1).any():
        dup_key = int(uniq[np.argmax(counts > 1)])
        raise InvalidTreeError(
            f"duplicate edge between vertices {dup_key // n} and {dup_key % n}"
        )
    # Acyclicity via union-find (Python loop; n-1 iterations).
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    for i in range(m):
        ra, rb = find(int(edges[i, 0])), find(int(edges[i, 1]))
        if ra == rb:
            raise InvalidTreeError(f"edge {i} = {tuple(edges[i])} creates a cycle")
        parent[ra] = rb


def validate_weights(weights: np.ndarray) -> None:
    """Verify weights are finite real numbers."""
    weights = np.asarray(weights)
    if weights.ndim != 1:
        raise InvalidWeightsError(f"weights must be 1-D, got shape {weights.shape}")
    if weights.size == 0:
        return
    if not np.issubdtype(weights.dtype, np.number):
        raise InvalidWeightsError(f"weights must be numeric, got dtype {weights.dtype}")
    finite = np.isfinite(weights)
    if not finite.all():
        bad = int(np.argmax(~finite))
        raise InvalidWeightsError(f"weight {bad} is not finite: {weights[bad]}")
