"""Synthetic social graphs (Friendster / Twitter stand-ins).

Two generators with the skewed-degree, triangle-rich structure the paper's
Figure 8 inputs have:

* :func:`rmat_graph` -- the classic R-MAT recursive-quadrant generator
  (Chakrabarti et al.), deduplicated and symmetrized;
* :func:`preferential_attachment_graph` -- Barabasi-Albert style growth
  (each new vertex attaches to ``m`` existing vertices chosen
  proportionally to degree), which yields a power-law "follower" degree
  distribution.

:func:`social_mst` runs the paper's exact pipeline on either: symmetrize,
weight edges ``1/(1+triangles)``, connect any residual components, and
return the minimum spanning tree as a :class:`~repro.trees.wtree.WeightedTree`.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.triangles import triangle_weights
from repro.errors import InvalidGraphError
from repro.structures.unionfind import UnionFind
from repro.trees.mst import minimum_spanning_tree
from repro.trees.wtree import WeightedTree
from repro.util import check_random_state

__all__ = ["rmat_graph", "preferential_attachment_graph", "social_mst"]


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int | np.random.Generator | None = None,
) -> tuple[int, np.ndarray]:
    """R-MAT graph on ``2**scale`` vertices with ``~edge_factor * n`` edges.

    Returns ``(n, edges)`` with duplicates, self loops, and direction
    removed.  Quadrant probabilities ``(a, b, c, 1-a-b-c)`` default to the
    Graph500 values, which produce the heavy-tailed degree skew of social
    networks.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("quadrant probabilities must be a valid distribution")
    rng = check_random_state(seed)
    n = 1 << scale
    m = edge_factor * n
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # One quadrant decision per bit level, vectorized over all edges.
    for _ in range(scale):
        r = rng.random(m)
        go_right = (r >= a) & (r < a + b) | (r >= a + b + c)
        go_down = r >= a + b
        src = (src << 1) | go_down.astype(np.int64)
        dst = (dst << 1) | go_right.astype(np.int64)
    keep = src != dst
    u = np.minimum(src[keep], dst[keep])
    v = np.maximum(src[keep], dst[keep])
    keys = u * np.int64(n) + v
    uniq = np.unique(keys)
    edges = np.stack([uniq // n, uniq % n], axis=1).astype(np.int64)
    return n, edges


def preferential_attachment_graph(
    n: int,
    m_attach: int = 4,
    seed: int | np.random.Generator | None = None,
) -> tuple[int, np.ndarray]:
    """Barabasi-Albert style power-law graph; returns ``(n, edges)``.

    Each new vertex draws ``m_attach`` endpoints from the degree-weighted
    repeated-endpoints urn; duplicate picks are collapsed, so vertices have
    *up to* ``m_attach`` out-attachments.
    """
    if n < 2:
        raise ValueError(f"need at least two vertices, got {n}")
    if m_attach < 1:
        raise ValueError(f"m_attach must be >= 1, got {m_attach}")
    rng = check_random_state(seed)
    urn: list[int] = [0, 1]  # endpoint multiset; seeded with the first edge
    pairs: set[tuple[int, int]] = {(0, 1)}
    for v in range(2, n):
        picks = {int(urn[int(rng.integers(len(urn)))]) for _ in range(min(m_attach, v))}
        for u in picks:
            pairs.add((min(u, v), max(u, v)))
            urn.append(u)
            urn.append(v)
    edges = np.array(sorted(pairs), dtype=np.int64)
    return n, edges


def social_mst(
    n: int,
    edges: np.ndarray,
    seed: int | np.random.Generator | None = None,
) -> WeightedTree:
    """The paper's real-world-tree pipeline on a (possibly disconnected)
    simple undirected graph: triangle weights, component bridging, MST."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.shape[0] == 0:
        raise InvalidGraphError("graph has no edges")
    weights = triangle_weights(n, edges)
    # Bridge residual components with max-weight edges (they merge last, so
    # they do not perturb intra-component dendrogram structure).
    uf = UnionFind(n)
    for u, v in edges:
        if uf.find(int(u)) != uf.find(int(v)):
            uf.union(int(u), int(v))
    if uf.num_sets > 1:
        rng = check_random_state(seed)
        roots = np.array([uf.find(v) for v in range(n)])
        reps = np.unique(roots)
        bridge_w = float(weights.max()) + 1.0
        extra = []
        for a, b in zip(reps[:-1], reps[1:]):
            extra.append([int(a), int(b)])
            uf.union(int(a), int(b))
        edges = np.concatenate([edges, np.asarray(extra, dtype=np.int64)])
        weights = np.concatenate(
            [weights, np.full(len(extra), bridge_w) + rng.random(len(extra))]
        )
    return minimum_spanning_tree(n, edges, weights)
