"""repro: optimal parallel single-linkage dendrogram computation.

A from-scratch Python reproduction of "Optimal Parallel Algorithms for
Dendrogram Computation and Single-Linkage Clustering" (Dhulipala, Dong,
Gowda, Gu; SPAA 2024): the SeqUF baseline, the activation-based ParUF
algorithm, the RC-tree-tracing RCTT algorithm, the optimal heap-based
SLD-TreeContraction algorithm, the SLD-Merge divide-and-conquer framework,
and every substrate they depend on (meldable/filterable heaps, parallel
tree contraction, union-find, MST reduction, and a work-depth cost-model
runtime that charges the parallel primitives' costs).

Quickstart::

    import numpy as np
    from repro import WeightedTree, single_linkage_dendrogram

    tree = WeightedTree(4, np.array([[0, 1], [1, 2], [2, 3]]),
                        np.array([0.5, 0.1, 0.9]))
    dend = single_linkage_dendrogram(tree, algorithm="rctt")
    dend.parents     # parent edge of each edge's dendrogram node
    dend.height      # the paper's h
    dend.to_linkage()  # SciPy-compatible linkage matrix
"""

from repro._version import __version__
from repro.core.api import ALGORITHMS, single_linkage_dendrogram
from repro.dendrogram.structure import Dendrogram
from repro.trees.generators import (
    balanced_binary,
    broom,
    caterpillar,
    knuth_tree,
    path_tree,
    random_tree,
    star_of_stars,
    star_tree,
)
from repro.trees.mst import minimum_spanning_tree
from repro.trees.weights import apply_scheme
from repro.trees.wtree import WeightedTree

__all__ = [
    "__version__",
    "WeightedTree",
    "Dendrogram",
    "single_linkage_dendrogram",
    "ALGORITHMS",
    "minimum_spanning_tree",
    "apply_scheme",
    "path_tree",
    "star_tree",
    "knuth_tree",
    "random_tree",
    "balanced_binary",
    "caterpillar",
    "broom",
    "star_of_stars",
]
