"""Benchmark input registry: the paper's input families, geometrically scaled.

The paper evaluates on {path, star, knuth} x {unit, perm} plus the
ParUF-adversarial path-low-par, at 10M / 100M / 1B vertices, and on three
real-world trees.  This registry provides the same seven synthetic
families at sizes scaled for a single-core Python run (default 10K / 40K /
160K; multiply with ``REPRO_BENCH_SCALE``), and the three real-world
stand-ins of DESIGN.md Section 1.
"""

from __future__ import annotations

import os

from repro.cluster.knn import knn_graph
from repro.datasets.points import gaussian_blobs
from repro.datasets.synthetic_graphs import (
    preferential_attachment_graph,
    rmat_graph,
    social_mst,
)
from repro.trees.generators import make_tree
from repro.trees.mst import minimum_spanning_tree
from repro.trees.wtree import WeightedTree

__all__ = [
    "SYNTHETIC_FAMILIES",
    "BENCH_THREADS",
    "bench_sizes",
    "make_input",
    "realworld_inputs",
]

#: The seven synthetic input families of Table 1, in the paper's order.
SYNTHETIC_FAMILIES = (
    "path",
    "path-perm",
    "path-low-par",
    "star",
    "star-perm",
    "knuth",
    "knuth-perm",
)

#: Thread counts swept in Figures 6 and 8 (the paper's x-axis, 1..192).
BENCH_THREADS = (1, 2, 4, 8, 16, 32, 64, 96, 192)

_BASE_SIZES = (10_000, 40_000, 160_000)

#: Paper-scale labels the scaled sizes stand in for (Table 1 rows).
PAPER_SIZE_LABELS = ("10M", "100M", "1B")


def bench_scale() -> int:
    """Multiplier from the ``REPRO_BENCH_SCALE`` environment variable."""
    try:
        scale = int(os.environ.get("REPRO_BENCH_SCALE", "1"))
    except ValueError:
        scale = 1
    return max(1, scale)


def bench_sizes() -> tuple[int, ...]:
    """The three geometric input sizes (paper: 10M / 100M / 1B)."""
    s = bench_scale()
    return tuple(n * s for n in _BASE_SIZES)


def make_input(family: str, n: int, seed: int = 0) -> WeightedTree:
    """Build one synthetic input: topology family + weight scheme."""
    if family not in SYNTHETIC_FAMILIES:
        raise ValueError(
            f"unknown input family {family!r}; expected one of {SYNTHETIC_FAMILIES}"
        )
    base, _, scheme = family.partition("-")
    return make_tree(base, n, scheme or "unit", seed)


def realworld_inputs(n: int, seed: int = 0) -> dict[str, WeightedTree]:
    """The three real-world stand-ins (Figure 8), each ending in an MST.

    * ``rmat-social``: RMAT graph -> triangle weights -> MST (Friendster);
    * ``powerlaw-follow``: preferential attachment -> triangle weights ->
      MST (Twitter);
    * ``knn-points``: Gaussian-mixture cloud -> exact k-NN graph -> MST
      (BigANN/DiskANN).
    """
    out: dict[str, WeightedTree] = {}
    scale = max(6, n.bit_length() - 1)
    gn, gedges = rmat_graph(scale, edge_factor=8, seed=seed)
    out["rmat-social"] = social_mst(gn, gedges, seed=seed)
    pn, pedges = preferential_attachment_graph(n, m_attach=4, seed=seed + 1)
    out["powerlaw-follow"] = social_mst(pn, pedges, seed=seed + 1)
    pts, _ = gaussian_blobs(min(n, 4000), centers=8, dim=4, seed=seed + 2)
    kn, kedges, kweights = knn_graph(pts, k=6)
    out["knn-points"] = minimum_spanning_tree(kn, kedges, kweights)
    return out
