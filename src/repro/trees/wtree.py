"""The :class:`WeightedTree` input representation.

A tree on ``n`` vertices is stored as flat NumPy arrays: an ``(n-1, 2)``
edge array and a length ``n-1`` weight array.  Adjacency is materialized
lazily in CSR form (offsets + per-slot neighbor vertex and edge id), the
cache-friendly layout the optimization guides recommend and the same layout
the paper's C++ implementation uses.
"""

from __future__ import annotations

import numpy as np

from repro.checkers import access as _access
from repro.errors import InvalidTreeError, InvalidWeightsError
from repro.trees.validation import validate_tree_edges, validate_weights
from repro.trees.weights import ranks_of

__all__ = ["WeightedTree"]


class WeightedTree:
    """An edge-weighted undirected tree on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        ``(n-1, 2)`` integer array; row ``i`` is the endpoints of edge ``i``.
        Edge ids are positions in this array and are the identities used by
        every dendrogram algorithm.
    weights:
        Length ``n-1`` float array of edge weights (dissimilarities; lower
        weight merges earlier).
    validate:
        When true (default), verify the edge set really is a spanning tree.
    """

    __slots__ = ("n", "edges", "weights", "_ranks", "_adj_offsets", "_adj_vertex", "_adj_edge")

    def __init__(
        self,
        n: int,
        edges: np.ndarray,
        weights: np.ndarray,
        validate: bool = True,
    ) -> None:
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim == 1 and edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or (edges.size and edges.shape[1] != 2):
            raise InvalidTreeError(f"edges must have shape (n-1, 2), got {edges.shape}")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.shape[0] != edges.shape[0]:
            raise InvalidWeightsError(
                f"weights must be 1-D with one entry per edge; got shape "
                f"{weights.shape} for {edges.shape[0]} edges"
            )
        if validate:
            validate_tree_edges(n, edges)
            validate_weights(weights)
        self.n = int(n)
        self.edges = edges
        self.weights = weights
        self._ranks: np.ndarray | None = None
        self._adj_offsets: np.ndarray | None = None
        self._adj_vertex: np.ndarray | None = None
        self._adj_edge: np.ndarray | None = None

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls, pairs, weights=None, n: int | None = None, validate: bool = True
    ) -> "WeightedTree":
        """Build from a Python list of ``(u, v)`` pairs and optional weights."""
        edges = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        if n is None:
            n = int(edges.max()) + 1 if edges.size else 1
        if weights is None:
            weights = np.ones(edges.shape[0], dtype=np.float64)
        return cls(n, edges, np.asarray(weights, dtype=np.float64), validate=validate)

    def with_weights(self, weights: np.ndarray) -> "WeightedTree":
        """Same topology with a different weight vector (revalidates weights)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.m,):
            raise InvalidWeightsError(
                f"expected {self.m} weights, got shape {weights.shape}"
            )
        validate_weights(weights)
        tree = WeightedTree(self.n, self.edges, weights, validate=False)
        # Topology is unchanged; share the adjacency cache.
        tree._adj_offsets = self._adj_offsets
        tree._adj_vertex = self._adj_vertex
        tree._adj_edge = self._adj_edge
        return tree

    # -- properties -------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges (``n - 1`` for a nonempty tree)."""
        return self.edges.shape[0]

    @property
    def ranks(self) -> np.ndarray:
        """Rank of each edge in weight-sorted order (ties broken by edge id).

        All algorithms in this package compare edges by rank, matching the
        paper's deterministic tie-breaking assumption.
        """
        _access.record_read(self, "ranks")
        if self._ranks is None:
            # Idempotent lazy fill: same-value construction is benign under
            # the round model (a real implementation guards it with a
            # once-flag), so it is deliberately not recorded as a write.
            self._ranks = ranks_of(self.weights)
        return self._ranks

    def degrees(self) -> np.ndarray:
        """Vertex degree array."""
        offsets, _, _ = self.adjacency()
        return np.diff(offsets)

    # -- adjacency ----------------------------------------------------------------
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR adjacency: ``(offsets, nbr_vertex, nbr_edge)``.

        Vertex ``v``'s incident slots are ``offsets[v]:offsets[v+1]``;
        ``nbr_vertex[s]`` is the neighbor and ``nbr_edge[s]`` the edge id.
        """
        _access.record_read(self, "adjacency")
        if self._adj_offsets is None:
            m = self.m
            endpoints = self.edges.reshape(-1)  # u0,v0,u1,v1,...
            counts = np.bincount(endpoints, minlength=self.n)
            offsets = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            nbr_vertex = np.empty(2 * m, dtype=np.int64)
            nbr_edge = np.empty(2 * m, dtype=np.int64)
            # stable fill: sort slot owners; the "other" endpoint sits at the
            # paired position (xor 1) in the flattened endpoint array.
            order = np.argsort(endpoints, kind="stable")
            nbr_vertex[:] = endpoints[order ^ 1]
            nbr_edge[:] = order >> 1
            self._adj_offsets = offsets
            self._adj_vertex = nbr_vertex
            self._adj_edge = nbr_edge
        return self._adj_offsets, self._adj_vertex, self._adj_edge  # type: ignore[return-value]

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbor_vertices, incident_edge_ids)`` of vertex ``v``."""
        offsets, nbr_vertex, nbr_edge = self.adjacency()
        lo, hi = offsets[v], offsets[v + 1]
        return nbr_vertex[lo:hi], nbr_edge[lo:hi]

    def adjacency_lists(self) -> list[list[tuple[int, int]]]:
        """Python-list adjacency ``adj[v] = [(neighbor, edge_id), ...]``.

        Mutable form consumed by the contraction scheduler, which deletes
        and rewires entries as the tree contracts.
        """
        offsets, nbr_vertex, nbr_edge = self.adjacency()
        out: list[list[tuple[int, int]]] = []
        for v in range(self.n):
            lo, hi = int(offsets[v]), int(offsets[v + 1])
            out.append(
                [(int(nbr_vertex[s]), int(nbr_edge[s])) for s in range(lo, hi)]
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedTree(n={self.n}, m={self.m})"


def _adopt_ranks(tree: WeightedTree, ranks: np.ndarray) -> WeightedTree:
    """Fill ``tree``'s rank cache with ``ranks`` and return ``tree``.

    For a producer that already maintains ``ranks_of(tree.weights)`` (the
    dynamic engine), so a consumer of ``tree.ranks`` skips the sort.  The
    caller vouches for the ranks and hands over an array it no longer
    writes; nothing here checks them.
    """
    tree._ranks = ranks
    return tree
