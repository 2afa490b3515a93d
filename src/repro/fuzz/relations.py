"""Metamorphic relations: oracle-free invariants of SLD computation.

Each relation transforms a tree into a sibling instance whose dendrogram
is *exactly* predictable from the original's, then checks an algorithm for
equivariance -- no brute-force oracle involved, so these catch bug classes
the differential layer is blind to once an algorithm and the oracle share
an assumption (and they remain usable at sizes where O(n^2) is not).

* **edge-permutation invariance** -- reordering the edge rows (with
  weights canonicalized to ranks so tie-breaking travels with the
  permutation) conjugates the parent array by the permutation;
* **monotone weight-transform equivariance** -- any strictly increasing
  transform that provably preserves the rank order (checked, not assumed:
  float rounding can collapse near-duplicates) leaves the parent array
  unchanged;
* **leaf-relabeling conjugacy** -- renaming vertices leaves the parent
  array unchanged (dendrogram nodes are edges; edge ids and weights do not
  move);
* **cut/cophenetic consistency** -- the parent array must reproduce, for
  sampled thresholds, the flat clustering that union-find over the low-rank
  edges defines, and the cophenetic distance of an edge's endpoints must
  equal that edge's weight;
* **query-engine consistency** -- the batched snapshot/query engine
  (leaf-order range-maximum merge heights, threshold cuts) must agree
  with the scalar spine walks and union-find cuts on the same dendrogram.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

import numpy as np

from repro.fuzz.generators import TreeCase
from repro.fuzz.oracles import Finding
from repro.trees.weights import ranks_of

__all__ = ["METAMORPHIC_RELATIONS", "relations_check"]

Algorithm = Callable[..., np.ndarray]


def _run(fn: Algorithm, case: TreeCase) -> np.ndarray | None:
    try:
        return np.asarray(fn(case.tree()))
    except Exception:
        return None  # crashes belong to the differential layer


def edge_permutation_invariance(
    case: TreeCase, fn: Algorithm, rng: np.random.Generator
) -> str | None:
    """Permuting edge rows must conjugate the parent array."""
    m = case.edges.shape[0]
    if m < 2:
        return None
    base = _run(fn, case)
    if base is None:
        return None
    ranks = ranks_of(case.weights)
    perm = rng.permutation(m)
    permuted = TreeCase(
        n=case.n,
        edges=case.edges[perm],
        # Ranks as weights: distinct, and ordered exactly as the original's
        # tie-broken rank order, so the permuted instance's dendrogram is
        # the conjugate of the original's by construction.
        weights=ranks[perm].astype(np.float64),
        label=case.label + "+edge-perm",
    )
    got = _run(fn, permuted)
    if got is None:
        return "crashed on the edge-permuted instance"
    inv = np.empty(m, dtype=np.int64)
    inv[perm] = np.arange(m, dtype=np.int64)
    expected = inv[base[perm]]
    if not np.array_equal(got, expected):
        return "parent array is not equivariant under an edge permutation"
    return None


_MONOTONE_TRANSFORMS: tuple[tuple[str, Callable[[np.ndarray], np.ndarray]], ...] = (
    ("affine", lambda w: 2.0 * w + 1.0),
    ("halve", lambda w: 0.5 * w),
    ("cube", lambda w: w * w * w),  # odd power: increasing over negatives too
    ("rankify", lambda w: ranks_of(w).astype(np.float64)),
)


def monotone_weight_equivariance(
    case: TreeCase, fn: Algorithm, rng: np.random.Generator
) -> str | None:
    """A rank-preserving weight transform must not change the parent array."""
    name, f = _MONOTONE_TRANSFORMS[int(rng.integers(len(_MONOTONE_TRANSFORMS)))]
    # Overflow to inf is expected on huge-weight inputs and handled by the
    # finiteness guard below, so keep numpy quiet about it.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        new_weights = np.asarray(f(case.weights), dtype=np.float64)
    if not np.all(np.isfinite(new_weights)):
        return None
    if not np.array_equal(ranks_of(new_weights), ranks_of(case.weights)):
        return None  # transform collapsed/reordered ranks in float; vacuous
    base = _run(fn, case)
    if base is None:
        return None
    got = _run(fn, replace(case, weights=new_weights, label=case.label + f"+{name}"))
    if got is None:
        return f"crashed after the rank-preserving {name!r} weight transform"
    if not np.array_equal(got, base):
        return f"parent array changed under the rank-preserving {name!r} weight transform"
    return None


def leaf_relabeling_conjugacy(
    case: TreeCase, fn: Algorithm, rng: np.random.Generator
) -> str | None:
    """Renaming vertices must leave the parent array untouched."""
    base = _run(fn, case)
    if base is None:
        return None
    pi = rng.permutation(case.n).astype(np.int64)
    relabeled = replace(case, edges=pi[case.edges], label=case.label + "+relabel")
    got = _run(fn, relabeled)
    if got is None:
        return "crashed on the vertex-relabeled instance"
    if not np.array_equal(got, base):
        return "parent array depends on vertex labels"
    return None


def _canonical_partition(labels: np.ndarray) -> np.ndarray:
    """Relabel a partition by first occurrence so partitions compare by ==."""
    out = np.empty(labels.shape[0], dtype=np.int64)
    mapping: dict[int, int] = {}
    for i, lab in enumerate(labels.tolist()):
        out[i] = mapping.setdefault(lab, len(mapping))
    return out


def cut_cophenetic_consistency(
    case: TreeCase, fn: Algorithm, rng: np.random.Generator
) -> str | None:
    """The parent array must reproduce flat cuts and edge cophenetics."""
    parents = _run(fn, case)
    if parents is None:
        return None
    tree = case.tree()
    m = tree.m
    ranks = tree.ranks

    # Cophenetic: endpoints of edge e first co-cluster exactly at node e.
    from repro.dendrogram.cophenet import cophenetic_distance
    from repro.dendrogram.structure import Dendrogram

    dend = Dendrogram(tree, parents)
    for e in rng.choice(m, size=min(m, 6), replace=False):
        u, v = int(tree.edges[e, 0]), int(tree.edges[e, 1])
        try:
            d = cophenetic_distance(dend, u, v)
        except Exception:
            return f"cophenetic query crashed for the endpoints of edge {int(e)}"
        if d != float(tree.weights[e]):
            return (
                f"cophenetic distance of edge {int(e)}'s endpoints is {d!r}, "
                f"not its weight {float(tree.weights[e])!r}"
            )

    # Cut: clusters below rank k from the parent array vs. from union-find.
    from repro.dendrogram.linkage import leaf_parents
    from repro.structures.unionfind import UnionFind

    k = int(rng.integers(0, m + 1))
    lp = leaf_parents(tree)
    from_parents = np.empty(tree.n, dtype=np.int64)
    for vtx in range(tree.n):
        node = int(lp[vtx])
        if ranks[node] >= k:
            from_parents[vtx] = m + vtx  # still a singleton below rank k
            continue
        while True:
            parent = int(parents[node])
            if parent == node or ranks[parent] >= k:
                break
            node = parent
        from_parents[vtx] = node
    uf = UnionFind(tree.n)
    for e in np.flatnonzero(ranks < k):
        uf.union(int(tree.edges[e, 0]), int(tree.edges[e, 1]))
    from_uf = np.array([uf.find(vtx) for vtx in range(tree.n)], dtype=np.int64)
    if not np.array_equal(_canonical_partition(from_parents), _canonical_partition(from_uf)):
        return f"flat cut below rank {k} disagrees with the union-find partition"
    return None


def query_engine_consistency(
    case: TreeCase, fn: Algorithm, rng: np.random.Generator
) -> str | None:
    """The batched query engine must agree with the definitional answers.

    Sampled vertex pairs through the snapshot's leaf-order range maximum
    vs. the scalar spine walk, and one weight-threshold cut vs. the
    union-find sweep -- cheap enough to run on every fuzz case.
    """
    parents = _run(fn, case)
    if parents is None:
        return None
    tree = case.tree()

    from repro.dendrogram.cophenet import cophenetic_distance
    from repro.dendrogram.linkage import cut_height
    from repro.dendrogram.query import QueryEngine
    from repro.dendrogram.structure import Dendrogram

    dend = Dendrogram(tree, parents)
    try:
        engine = QueryEngine.from_dendrogram(dend, cut_cache_size=0)
    except Exception as exc:
        return f"query-engine construction crashed ({type(exc).__name__}: {exc})"
    pairs = rng.integers(0, tree.n, size=(8, 2))
    try:
        got = engine.merge_heights(pairs)
    except Exception as exc:
        return f"batched merge_heights crashed ({type(exc).__name__}: {exc})"
    for i, (u, v) in enumerate(pairs.tolist()):
        want = cophenetic_distance(dend, int(u), int(v))
        if got[i] != want:
            return (
                f"batched merge_height({u}, {v}) = {got[i]!r}, "
                f"the scalar spine walk says {want!r}"
            )
    t = float(rng.choice(tree.weights)) if tree.m else 0.0
    if not np.array_equal(engine.cut_at(t), cut_height(tree, t)):
        return f"query-engine cut_at({t!r}) disagrees with the union-find cut"
    return None


#: name -> relation(case, algorithm, rng) -> failure message | None
METAMORPHIC_RELATIONS: dict[
    str, Callable[[TreeCase, Algorithm, np.random.Generator], str | None]
] = {
    "edge-permutation": edge_permutation_invariance,
    "monotone-weights": monotone_weight_equivariance,
    "leaf-relabeling": leaf_relabeling_conjugacy,
    "cut-cophenetic": cut_cophenetic_consistency,
    "query-engine": query_engine_consistency,
}


def relations_check(
    case: TreeCase,
    algorithms: dict[str, Algorithm],
    rng: np.random.Generator,
    relations: dict[
        str, Callable[[TreeCase, Algorithm, np.random.Generator], str | None]
    ] | None = None,
) -> list[Finding]:
    """Apply every relation to every algorithm; deterministic given ``rng``."""
    findings: list[Finding] = []
    table = relations if relations is not None else METAMORPHIC_RELATIONS
    for rel_name, relation in table.items():
        for alg_name, fn in algorithms.items():
            sub_rng = np.random.default_rng(rng.integers(2**63))
            message = relation(case, fn, sub_rng)
            if message is not None:
                findings.append(
                    Finding(
                        check=f"relation:{rel_name}:{alg_name}",
                        message=message,
                        case=case,
                    )
                )
    return findings
