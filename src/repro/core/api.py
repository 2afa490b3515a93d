"""One-call public entry point for dendrogram computation.

Backends
--------
Four of the registered algorithms have a flat-array *array backend*
producing bit-identical output (the SLD is unique under the
deterministic (weight, edge-id) rank order).  Three are wall-clock twins
of their reference; RCTT's reference is itself array-native, so it is
its own array backend:

=================== ==============================================
algorithm           array backend
=================== ==============================================
``sequf``           :func:`repro.core.fast.sequf_fast`
``tree-contraction``:func:`repro.core.fast_contraction.tree_contraction_fast`
``rctt``            :func:`repro.core.rctt.rctt` (the reference itself)
``divide-conquer``  :func:`repro.core.fast_merge.sld_merge_fast`
=================== ==============================================

:func:`single_linkage_dendrogram` selects between them with ``backend=``:
``"reference"`` always runs the instrumented implementation,
``"array"`` requires an array backend
(:class:`~repro.errors.AlgorithmError` if the algorithm has none), and
``"auto"`` (the default) picks the array backend when one exists.  The
twins themselves delegate to the reference whenever instrumentation is
active (a tracker or a shadow-access recorder), so ``"auto"`` never
loses cost accounting.  A twin has no registry name of its own:
benchmarks, fuzzing and tests reach it as
``resolve_algorithm(name, "array")``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.checkers.bounds import cost_bound
from repro.core.brute import brute_force_sld
from repro.core.cartesian import sld_path
from repro.core.fast import sequf_fast
from repro.core.fast_contraction import tree_contraction_fast
from repro.core.fast_merge import sld_merge_fast
from repro.core.merge import sld_divide_and_conquer
from repro.core.paruf import paruf
from repro.core.paruf_sync import paruf_sync
from repro.core.rctt import rctt
from repro.core.sequf import sequf
from repro.core.tree_contraction_sld import sld_tree_contraction
from repro.core.weight_dc import sld_weight_dc
from repro.dendrogram.structure import Dendrogram
from repro.errors import AlgorithmError
from repro.runtime.cost_model import BACKENDS, check_backend
from repro.trees.wtree import WeightedTree

__all__ = [
    "ALGORITHMS",
    "BACKENDS",
    "resolve_algorithm",
    "single_linkage_dendrogram",
]


def _tc_heap(tree: WeightedTree, **kw: Any) -> np.ndarray:
    return sld_tree_contraction(tree, mode="heap", **kw)


def _tc_list(tree: WeightedTree, **kw: Any) -> np.ndarray:
    return sld_tree_contraction(tree, mode="list", **kw)


#: Algorithm registry: name -> callable(tree, **options) -> parent array.
ALGORITHMS: dict[str, Callable[..., np.ndarray]] = {
    "sequf": sequf,
    "paruf": paruf,
    "paruf-sync": paruf_sync,
    "rctt": rctt,
    "tree-contraction": _tc_heap,
    "tree-contraction-list": _tc_list,
    "divide-conquer": sld_divide_and_conquer,
    "weight-dc": sld_weight_dc,
    "cartesian": sld_path,
    "brute": brute_force_sld,
}

#: Reference algorithm name -> its array backend (``rctt`` is its own).
_ARRAY_TWINS: dict[str, Callable[..., np.ndarray]] = {
    "sequf": sequf_fast,
    "rctt": rctt,
    "tree-contraction": tree_contraction_fast,
    "divide-conquer": sld_merge_fast,
}


def resolve_algorithm(algorithm: str, backend: str = "auto") -> Callable[..., np.ndarray]:
    """The callable that ``single_linkage_dendrogram`` would dispatch to.

    ``backend="reference"`` returns the registered (instrumented)
    implementation; ``"array"`` returns the fast twin and raises
    :class:`~repro.errors.AlgorithmError` for algorithms without one;
    ``"auto"`` returns the twin when it exists, the reference otherwise.
    """
    check_backend(backend)
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {algorithm!r}; expected one of {sorted(ALGORITHMS)}"
        ) from None
    if backend == "reference":
        return fn
    twin = _ARRAY_TWINS.get(algorithm)
    if twin is not None:
        return twin
    if backend == "array":
        raise AlgorithmError(
            f"algorithm {algorithm!r} has no array backend; available twins: "
            f"{sorted(_ARRAY_TWINS)}"
        )
    return fn


@cost_bound(
    work="n * h",
    depth="n * h",
    vars=("n", "h"),
    kind="dispatcher",
    theorem="sup over the selectable ALGORITHMS (the brute oracle dominates); "
    "per-algorithm bounds live on the algorithm functions",
)
def single_linkage_dendrogram(
    tree: WeightedTree,
    algorithm: str = "rctt",
    validate: bool = False,
    backend: str = "auto",
    **options: Any,
) -> Dendrogram:
    """Compute the single-linkage dendrogram of an edge-weighted tree.

    Parameters
    ----------
    tree:
        The input :class:`~repro.trees.wtree.WeightedTree`.
    algorithm:
        One of :data:`ALGORITHMS`:

        - ``"sequf"`` -- sequential union-find baseline;
        - ``"paruf"`` -- activation-based parallel algorithm
          (options: ``heap_kind``, ``postprocess``, ``order``, ``seed``);
        - ``"paruf-sync"`` -- its round-synchronous NN-chain-style variant;
        - ``"rctt"`` -- RC-tree tracing (option: ``seed``);
        - ``"tree-contraction"`` -- optimal heap-based algorithm;
        - ``"tree-contraction-list"`` -- its sub-optimal list ablation;
        - ``"divide-conquer"`` -- centroid SLD-Merge divide and conquer
          (array twin: the level-synchronous segment sweep);
        - ``"weight-dc"`` -- divide-and-conquer over weights (Wang et al.
          style, the prior state of the art; option: ``base_size``);
        - ``"cartesian"`` -- path inputs only (option: ``method``);
        - ``"brute"`` -- O(n^2) definitional oracle (tests/small inputs).
    validate:
        Run structural validation on the result before returning.
    backend:
        ``"auto"`` (default) runs the flat-array fast backend when the
        algorithm has one and instrumentation allows it; ``"reference"``
        forces the instrumented implementation; ``"array"`` requires a
        fast twin.  All backends return bit-identical dendrograms.
    options:
        Forwarded to the algorithm (e.g. ``tracker=`` for work/depth
        accounting).  Phase breakdowns come from running the call inside
        :func:`repro.runtime.instrumentation.recording`.

    Returns
    -------
    Dendrogram
        Parent-array dendrogram over the tree's edges.
    """
    fn = resolve_algorithm(algorithm, backend)
    parents = fn(tree, **options)
    return Dendrogram(tree, parents, validate=validate)
