"""repro.fuzz: seeded differential + metamorphic fuzzing of the package.

The paper's evaluation validates SeqUF/ParUF/RCTT against each other on
adversarial tree families; this subsystem automates that methodology and
extends it to the io layer:

* :mod:`repro.fuzz.domains` -- the registry: one :class:`Domain` record
  per case domain (tree, dynamic, graph, csv, npz) bundling its
  generator, check, shrinker and corpus codec; everything below is
  reached through it;
* :mod:`repro.fuzz.generators` -- deterministic adversarial inputs (tree
  topology x weight-family grid, batched insert/delete streams for the
  dynamic engine, connected graphs with boundary-biased streaming chunk
  sizes for the MST engines, malformed CSV text, corrupted ``.npz``
  bytes), one ``numpy`` Generator per ``(seed, case index)``;
* :mod:`repro.fuzz.oracles` -- the differential layer: every registered
  dendrogram algorithm and array twin against the
  :func:`~repro.core.brute.brute_force_sld` oracle,
  the batch-dynamic engine against recompute-from-scratch (shadow-model
  error prediction + ``sequf``/Kruskal cross-checks), the array-backend
  Boruvka and out-of-core streaming Kruskal against in-memory Kruskal,
  and ``load_edges_csv`` against an independent reference parser;
* :mod:`repro.fuzz.relations` -- metamorphic relations (edge-permutation
  invariance, monotone weight-transform equivariance, leaf-relabeling
  conjugacy, cut/cophenetic consistency);
* :mod:`repro.fuzz.shrink` -- greedy minimization, one shrinker per domain;
* :mod:`repro.fuzz.corpus` -- the replayable regression corpus under
  ``tests/fixtures/corpus/`` (byte-stable JSON entries);
* :mod:`repro.fuzz.runner` -- the ``python -m repro fuzz`` driver;
* :mod:`repro.fuzz.selftest` -- mutants the fuzzer must catch, each a
  registry domain with its check replaced.

Determinism contract: case ``i`` under ``--seed s`` is a pure function of
``(s, i)``; a budget or case cap only truncates the sequence.  Corpus
entries are content-addressed, so two runs with the same seed write
byte-identical files.
"""

from repro.fuzz.corpus import replay_corpus, save_finding
from repro.fuzz.domains import DOMAINS, Domain, draw_case, select_domains
from repro.fuzz.generators import (
    CsvCase,
    DynamicCase,
    GraphCase,
    NpzCase,
    TreeCase,
    case_rng,
    gen_dynamic_case,
    gen_graph_case,
)
from repro.fuzz.oracles import (
    FUZZ_ALGORITHMS,
    Finding,
    differential_check,
    dynamic_check,
    io_csv_check,
    mst_check,
)
from repro.fuzz.relations import METAMORPHIC_RELATIONS, relations_check
from repro.fuzz.runner import FuzzReport, run_fuzz
from repro.fuzz.selftest import run_selftest

__all__ = [
    "DOMAINS",
    "FUZZ_ALGORITHMS",
    "METAMORPHIC_RELATIONS",
    "CsvCase",
    "Domain",
    "DynamicCase",
    "Finding",
    "FuzzReport",
    "GraphCase",
    "NpzCase",
    "TreeCase",
    "case_rng",
    "differential_check",
    "draw_case",
    "dynamic_check",
    "gen_dynamic_case",
    "gen_graph_case",
    "io_csv_check",
    "mst_check",
    "relations_check",
    "replay_corpus",
    "run_fuzz",
    "run_selftest",
    "save_finding",
    "select_domains",
]
