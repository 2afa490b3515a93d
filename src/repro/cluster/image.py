"""Image segmentation via single linkage (the "alpha-tree" application).

The paper's related work (Appendix A) notes that the image-analysis
community studies SLDs as *alpha-trees*: build the 4-connectivity grid
graph of an image with edge weights ``|pixel(u) - pixel(v)|``, and the
single-linkage hierarchy is exactly the alpha-tree whose alpha-cut gives
the flat zones at tolerance alpha.  This module implements that pipeline
on top of the package's dendrogram algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import single_linkage_dendrogram
from repro.dendrogram.linkage import cut_height
from repro.dendrogram.structure import Dendrogram
from repro.errors import InvalidGraphError
from repro.trees.mst import minimum_spanning_tree
from repro.trees.wtree import WeightedTree

__all__ = ["grid_graph", "alpha_tree", "AlphaTreeResult"]


def grid_graph(image: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """4-connectivity graph of a 2-D image; returns ``(n, edges, weights)``.

    Vertices are pixels in row-major order; edge weights are absolute
    intensity differences.  Multi-channel images (H, W, C) use the L2
    difference across channels.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[0] < 1 or img.shape[1] < 1:
        raise InvalidGraphError(f"image must be (H, W) or (H, W, C), got {image.shape}")
    h, w, _ = img.shape
    ids = np.arange(h * w).reshape(h, w)

    horiz_u = ids[:, :-1].reshape(-1)
    horiz_v = ids[:, 1:].reshape(-1)
    horiz_w = np.sqrt(((img[:, :-1] - img[:, 1:]) ** 2).sum(axis=2)).reshape(-1)

    vert_u = ids[:-1, :].reshape(-1)
    vert_v = ids[1:, :].reshape(-1)
    vert_w = np.sqrt(((img[:-1, :] - img[1:, :]) ** 2).sum(axis=2)).reshape(-1)

    edges = np.concatenate(
        [np.stack([horiz_u, horiz_v], 1), np.stack([vert_u, vert_v], 1)]
    ).astype(np.int64)
    weights = np.concatenate([horiz_w, vert_w])
    return h * w, edges, weights


@dataclass
class AlphaTreeResult:
    """Alpha-tree of an image: MST + dendrogram + segmentation helpers."""

    shape: tuple[int, int]
    mst: WeightedTree
    dendrogram: Dendrogram

    def segment(self, alpha: float) -> np.ndarray:
        """Flat zones at tolerance ``alpha``: the labeled (H, W) image whose
        regions are maximal components with all internal steps <= alpha."""
        labels = cut_height(self.mst, alpha)
        return labels.reshape(self.shape)

    def n_segments(self, alpha: float) -> int:
        return int(np.unique(self.segment(alpha)).size)


def alpha_tree(image: np.ndarray, algorithm: str = "rctt", **options) -> AlphaTreeResult:
    """Build the alpha-tree (single-linkage hierarchy) of an image."""
    img = np.asarray(image)
    n, edges, weights = grid_graph(img)
    if n == 1:
        tree = WeightedTree(1, np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    else:
        tree = minimum_spanning_tree(n, edges, weights)
    dend = single_linkage_dendrogram(tree, algorithm=algorithm, **options)
    return AlphaTreeResult(shape=(img.shape[0], img.shape[1]), mst=tree, dendrogram=dend)
