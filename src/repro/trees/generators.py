"""Tree generators for the paper's synthetic inputs and test adversaries.

The paper's evaluation (Section 5) uses three synthetic families -- *path*,
*star*, and *knuth* (Fisher-Yates-Knuth-shuffle dependence structure:
vertex ``i`` attaches to a uniform vertex in ``[0, i-1]``).  We add shapes
used by the tests, the ablations, and the lower-bound experiment
(Appendix B's star-of-stars input).

Every generator returns edge arrays with unit weights; combine with
:func:`repro.trees.weights.apply_scheme` (or ``tree.with_weights``) for the
paper's weight schemes, or call :func:`make_tree`, which does both.
"""

from __future__ import annotations

import numpy as np

from repro.trees.weights import apply_scheme
from repro.trees.wtree import WeightedTree
from repro.util import check_random_state

__all__ = [
    "path_tree",
    "star_tree",
    "knuth_tree",
    "random_tree",
    "balanced_binary",
    "caterpillar",
    "broom",
    "star_of_stars",
    "make_tree",
]


def _tree(n: int, edges: np.ndarray) -> WeightedTree:
    weights = np.ones(max(n - 1, 0), dtype=np.float64)
    return WeightedTree(n, edges, weights, validate=False)


def path_tree(n: int) -> WeightedTree:
    """A path ``0 - 1 - ... - n-1``; edge ``i`` connects ``i`` and ``i+1``."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    idx = np.arange(n - 1, dtype=np.int64)
    edges = np.stack([idx, idx + 1], axis=1)
    return _tree(n, edges)


def star_tree(n: int, center: int = 0) -> WeightedTree:
    """A star: ``center`` adjacent to every other vertex."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range [0, {n})")
    others = np.concatenate(
        [np.arange(center, dtype=np.int64), np.arange(center + 1, n, dtype=np.int64)]
    )
    edges = np.stack([np.full(n - 1, center, dtype=np.int64), others], axis=1)
    return _tree(n, edges)


def knuth_tree(n: int, seed: int | np.random.Generator | None = None) -> WeightedTree:
    """Random recursive tree: vertex ``i > 0`` attaches to uniform ``[0, i-1]``.

    This is the paper's *knuth* input (the dependence structure of the
    Fisher-Yates-Knuth shuffle).
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    rng = check_random_state(seed)
    children = np.arange(1, n, dtype=np.int64)
    # parent of vertex i is uniform in [0, i-1]
    parents = (rng.random(max(n - 1, 0)) * children).astype(np.int64)
    edges = np.stack([parents, children], axis=1)
    return _tree(n, edges)


def random_tree(n: int, seed: int | np.random.Generator | None = None) -> WeightedTree:
    """Uniformly random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if n <= 2:
        return path_tree(n)
    rng = check_random_state(seed)
    prufer = rng.integers(0, n, size=n - 2)
    degree = np.bincount(prufer, minlength=n) + 1
    edges = np.empty((n - 1, 2), dtype=np.int64)
    # min-heap free list of degree-1 vertices
    import heapq

    free = [int(v) for v in range(n) if degree[v] == 1]
    heapq.heapify(free)
    for i, p in enumerate(prufer):
        leaf = heapq.heappop(free)
        edges[i, 0] = leaf
        edges[i, 1] = p
        degree[p] -= 1
        if degree[p] == 1:
            heapq.heappush(free, int(p))
    u = heapq.heappop(free)
    v = heapq.heappop(free)
    edges[n - 2, 0] = u
    edges[n - 2, 1] = v
    return _tree(n, edges)


def balanced_binary(n: int) -> WeightedTree:
    """Complete-binary-tree shape: vertex ``i > 0`` attaches to ``(i-1)//2``."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    children = np.arange(1, n, dtype=np.int64)
    parents = (children - 1) // 2
    edges = np.stack([parents, children], axis=1)
    return _tree(n, edges)


def caterpillar(n: int, spine: int | None = None) -> WeightedTree:
    """A spine path with the remaining vertices hung as legs (round-robin)."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if spine is None:
        spine = max(1, n // 2)
    if not 1 <= spine <= n:
        raise ValueError(f"spine length {spine} out of range [1, {n}]")
    edges = np.empty((n - 1, 2), dtype=np.int64)
    idx = np.arange(spine - 1, dtype=np.int64)
    edges[: spine - 1, 0] = idx
    edges[: spine - 1, 1] = idx + 1
    legs = np.arange(spine, n, dtype=np.int64)
    edges[spine - 1 :, 0] = (legs - spine) % spine
    edges[spine - 1 :, 1] = legs
    return _tree(n, edges)


def broom(n: int, handle: int | None = None) -> WeightedTree:
    """A path (*handle*) ending in a star (*brush*) -- mixed rake/compress load."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if handle is None:
        handle = n // 2
    if not 0 <= handle < n:
        raise ValueError(f"handle length {handle} out of range [0, {n})")
    edges = np.empty((n - 1, 2), dtype=np.int64)
    idx = np.arange(handle, dtype=np.int64)
    edges[:handle, 0] = idx
    edges[:handle, 1] = idx + 1
    brush = np.arange(handle + 1, n, dtype=np.int64)
    edges[handle:, 0] = handle
    edges[handle:, 1] = brush
    return _tree(n, edges)


def star_of_stars(
    n: int, h: int, seed: int | np.random.Generator | None = None
) -> tuple[WeightedTree, np.ndarray]:
    """Appendix B's lower-bound input: ``~n/h`` stars of size ``h`` on a path.

    Each star's internal edges get random weights drawn from a per-star
    window; the path edges connecting star centers get weights above every
    star weight, so each star's dendrogram is an independent sorting
    instance (forcing ``Omega((n/h) * h log h) = Omega(n log h)`` work).

    Returns ``(tree, weights)``; the tree carries the weights already.
    """
    if h < 2:
        raise ValueError(f"star size h must be >= 2, got {h}")
    if n < h:
        raise ValueError(f"need n >= h, got n={n}, h={h}")
    rng = check_random_state(seed)
    k = n // h  # number of stars
    n = k * h  # trim to a whole number of stars
    edges = []
    weights = []
    centers = [s * h for s in range(k)]
    for s in range(k):
        c = centers[s]
        star_w = rng.permutation(h - 1).astype(np.float64)
        for j in range(1, h):
            edges.append((c, c + j))
            weights.append(star_w[j - 1])
    big = float(h)  # all path weights exceed every star weight (h-2 max)
    for s in range(k - 1):
        edges.append((centers[s], centers[s + 1]))
        weights.append(big + s)
    tree = WeightedTree(
        n,
        np.asarray(edges, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
        validate=False,
    )
    return tree, tree.weights


def make_tree(kind: str, n: int, scheme: str = "unit", seed: int = 0) -> WeightedTree:
    """A ``kind`` topology on ``n`` vertices, weighted by ``scheme``.

    ``kind`` is one of ``path``, ``star``, ``knuth``, ``random``,
    ``caterpillar``, ``broom`` and ``binary``.  The random topologies draw
    from ``seed`` and the weights from ``seed + 1``, so one seed fixes the
    whole input (the CLI's ``--seed`` and the bench input registry).
    """
    makers = {
        "path": lambda: path_tree(n),
        "star": lambda: star_tree(n),
        "knuth": lambda: knuth_tree(n, seed=seed),
        "random": lambda: random_tree(n, seed=seed),
        "caterpillar": lambda: caterpillar(n),
        "broom": lambda: broom(n),
        "binary": lambda: balanced_binary(n),
    }
    if kind not in makers:
        raise ValueError(f"unknown tree kind {kind!r}; expected one of {tuple(makers)}")
    tree = makers[kind]()
    return tree.with_weights(apply_scheme(scheme, tree.m, seed=seed + 1))
