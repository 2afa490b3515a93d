"""Edge-weighted trees: representation, generators, weights, MST reduction.

The SLD problem's input is an edge-weighted tree (paper Section 2.3);
single-linkage clustering of a general weighted graph reduces to the SLD of
its minimum spanning tree (Gower & Ross), which :mod:`repro.trees.mst`
implements.
"""

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
from repro.trees.boruvka import boruvka_mst, boruvka_tree
from repro.trees.mst import kruskal_mst, minimum_spanning_tree, prim_mst
from repro.trees.validation import validate_tree_edges, validate_weights
from repro.trees.weights import apply_scheme, ranks_of, WEIGHT_SCHEMES
from repro.trees.wtree import WeightedTree

__all__ = [
    "WeightedTree",
    "path_tree",
    "star_tree",
    "knuth_tree",
    "random_tree",
    "balanced_binary",
    "caterpillar",
    "broom",
    "star_of_stars",
    "ranks_of",
    "apply_scheme",
    "WEIGHT_SCHEMES",
    "validate_tree_edges",
    "validate_weights",
    "minimum_spanning_tree",
    "kruskal_mst",
    "prim_mst",
    "boruvka_mst",
    "boruvka_tree",
]
