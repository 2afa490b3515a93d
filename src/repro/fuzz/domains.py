"""The fuzz domain registry: the one place that knows the case domains.

A :class:`Domain` bundles everything the fuzz loop, the shrinker and the
corpus need for one kind of input: how to draw a case, how to judge it,
how to shrink a failing one, and how to write it to and read it from a
``repro-fuzz-corpus/1`` entry.  :data:`DOMAINS` lists the five shipped
domains in wheel order; the runner, the corpus, the CLI and the selftest
iterate it and never branch on a case type or a domain name themselves.
Adding a domain is one new :class:`Domain` in this tuple.

Each domain's ``weight`` is its number of slots on the case wheel (tree
5, dynamic 2, graph 2, csv 2, npz 1).  Case ``i`` draws its slot and then
its content from ``case_rng(seed, i)``; a subset keeps registry order, so
``--domains csv,tree`` and ``--domains tree,csv`` draw the same cases.

A domain's ``check(case, rng)`` returns the findings for one case;
``rng`` is the per-case relation stream (the tree domain's metamorphic
relations use it, the others ignore it).  The selftest's mutants are
registry domains with ``check`` replaced (:func:`dataclasses.replace`).

The tree, dynamic and graph domains share one codec for their graph part:
``n``, ``edges`` as integer pairs and ``weights`` as ``float.hex()``
strings (exact round trip).  Every payload also carries ``label``; the
corpus adds ``kind``, the domain name.
"""

from __future__ import annotations

import base64
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.fuzz.generators import (
    CsvCase,
    DynamicCase,
    GraphCase,
    NpzCase,
    TreeCase,
    gen_csv_case,
    gen_dynamic_case,
    gen_graph_case,
    gen_npz_case,
    gen_tree_case,
)
from repro.fuzz.oracles import (
    FUZZ_ALGORITHMS,
    Finding,
    differential_check,
    dynamic_check,
    io_csv_check,
    io_npz_check,
    mst_check,
)
from repro.fuzz.relations import relations_check
from repro.fuzz.shrink import (
    shrink_csv_case,
    shrink_dynamic_case,
    shrink_graph_case,
    shrink_npz_case,
    shrink_tree_case,
)

__all__ = [
    "CSV",
    "DOMAINS",
    "DYNAMIC",
    "Domain",
    "GRAPH",
    "NPZ",
    "TREE",
    "domain_named",
    "domain_of",
    "draw_case",
    "select_domains",
]


@dataclass(frozen=True)
class Domain:
    """One fuzz case domain (see the module docstring)."""

    name: str
    weight: int
    case_type: type
    generate: Callable[[np.random.Generator], Any]
    check: Callable[[Any, np.random.Generator], list[Finding]]
    shrink: Callable[[Any, Callable[[Any], bool]], Any]
    encode: Callable[[Any], dict[str, Any]]
    decode: Callable[[dict[str, Any]], Any]


def _encode_graph(case: Any) -> dict[str, Any]:
    return {
        "n": case.n,
        "edges": [[int(u), int(v)] for u, v in case.edges],
        "weights": [float(w).hex() for w in case.weights],
        "label": case.label,
    }


def _decode_graph(payload: dict[str, Any]) -> dict[str, Any]:
    return {
        "n": int(payload["n"]),
        "edges": np.asarray(payload["edges"], dtype=np.int64).reshape(-1, 2),
        "weights": np.array([float.fromhex(w) for w in payload["weights"]], dtype=np.float64),
        "label": payload.get("label", ""),
    }


def _encode_dynamic(case: DynamicCase) -> dict[str, Any]:
    batches = [
        {
            "inserts": [[int(u), int(v), float(w).hex()] for u, v, w in ins],
            "deletes": [[int(u), int(v)] for u, v in dels],
        }
        for ins, dels in case.batches
    ]
    return {**_encode_graph(case), "batches": batches}


def _decode_dynamic(payload: dict[str, Any]) -> DynamicCase:
    batches = tuple(
        (
            tuple((int(u), int(v), float.fromhex(w)) for u, v, w in batch["inserts"]),
            tuple((int(u), int(v)) for u, v in batch["deletes"]),
        )
        for batch in payload["batches"]
    )
    return DynamicCase(**_decode_graph(payload), batches=batches)


TREE = Domain(
    name="tree",
    weight=5,
    case_type=TreeCase,
    generate=gen_tree_case,
    check=lambda case, rng: (
        differential_check(case) + relations_check(case, FUZZ_ALGORITHMS, rng)
    ),
    shrink=shrink_tree_case,
    encode=_encode_graph,
    decode=lambda payload: TreeCase(**_decode_graph(payload)),
)

DYNAMIC = Domain(
    name="dynamic",
    weight=2,
    case_type=DynamicCase,
    generate=gen_dynamic_case,
    check=lambda case, rng: dynamic_check(case),
    shrink=shrink_dynamic_case,
    encode=_encode_dynamic,
    decode=_decode_dynamic,
)

GRAPH = Domain(
    name="graph",
    weight=2,
    case_type=GraphCase,
    generate=gen_graph_case,
    check=lambda case, rng: mst_check(case),
    shrink=shrink_graph_case,
    encode=lambda case: {**_encode_graph(case), "chunk": case.chunk},
    decode=lambda payload: GraphCase(**_decode_graph(payload), chunk=int(payload["chunk"])),
)

CSV = Domain(
    name="csv",
    weight=2,
    case_type=CsvCase,
    generate=gen_csv_case,
    check=lambda case, rng: io_csv_check(case),
    shrink=shrink_csv_case,
    encode=lambda case: {"text": case.text, "has_header": case.has_header, "label": case.label},
    decode=lambda payload: CsvCase(
        text=payload["text"], has_header=payload["has_header"], label=payload.get("label", "")
    ),
)

NPZ = Domain(
    name="npz",
    weight=1,
    case_type=NpzCase,
    generate=gen_npz_case,
    check=lambda case, rng: io_npz_check(case),
    shrink=shrink_npz_case,
    encode=lambda case: {
        "data_base64": base64.b64encode(case.data).decode("ascii"),
        "label": case.label,
    },
    decode=lambda payload: NpzCase(
        data=base64.b64decode(payload["data_base64"]), label=payload.get("label", "")
    ),
)

#: The registry, in wheel order.
DOMAINS: tuple[Domain, ...] = (TREE, DYNAMIC, GRAPH, CSV, NPZ)


def select_domains(domains: Sequence[Domain | str] | None = None) -> tuple[Domain, ...]:
    """The wheel for ``domains``: names resolve against :data:`DOMAINS`.

    ``None`` is the whole registry.  :class:`Domain` records (overrides)
    are used as given.  The result is in registry order, so any order of
    the same subset draws the same cases.  Raises
    :class:`~repro.errors.ReproError` for an unknown name or an empty
    selection.
    """
    if domains is None:
        return DOMAINS
    registry = {domain.name: domain for domain in DOMAINS}
    chosen: dict[str, Domain] = {}
    for domain in domains:
        if isinstance(domain, str):
            if domain not in registry:
                expected = list(registry)
                raise ReproError(f"unknown fuzz domain {domain!r}; expected one of {expected}")
            domain = registry[domain]
        chosen.setdefault(domain.name, domain)
    if not chosen:
        raise ReproError(f"no fuzz domain selected; expected some of {list(registry)}")
    rank = {name: i for i, name in enumerate(registry)}
    return tuple(sorted(chosen.values(), key=lambda d: rank.get(d.name, len(rank))))


def draw_case(domains: Sequence[Domain], rng: np.random.Generator) -> tuple[Domain, Any]:
    """Spin the weighted wheel over ``domains``, then draw that domain's case."""
    wheel = [domain for domain in domains for _ in range(domain.weight)]
    domain = wheel[int(rng.integers(len(wheel)))]
    return domain, domain.generate(rng)


def domain_of(case: Any) -> Domain:
    """The registry domain whose ``case_type`` ``case`` is."""
    for domain in DOMAINS:
        if isinstance(case, domain.case_type):
            return domain
    raise ReproError(f"no fuzz domain holds a {type(case).__name__} case")


def domain_named(name: str) -> Domain:
    """The registry domain called ``name`` (:class:`~repro.errors.ReproError` if none)."""
    return select_domains([name])[0]
