"""Correctness tooling: round-race sanitizer, static analyzer, contracts.

All surfaced through ``python -m repro check`` (:mod:`repro.checkers.runner`):

* **Dynamic round-race detector** (:mod:`repro.checkers.access`,
  :mod:`repro.checkers.races`) -- a TSan analog for the simulated
  parallelism runtime.  Instrumented structures record per-task shadow
  read/write sets during a scheduler round; conflicting accesses raise
  :class:`~repro.errors.RaceConditionError` with task and cell provenance.
  Activated by ``Scheduler(race_check=True)``,
  ``CostTracker(race_check=True)``, or the ``race_check=`` flag of the
  round-structured core algorithms.

* **Static analyzer** (:mod:`repro.checkers.analyzer`) -- one engine and
  one rule registry for every RPR code, one parse per file.  Family
  ``lint``: repo invariants RPR001..RPR005 (no wall clock or unseeded
  randomness outside the runtime/bench layers, cost-tracker threading in
  ``repro.core``, :class:`~repro.trees.wtree.WeightedTree` immutability,
  annotated round-task closures) and the cost-bound contract
  RPR101..RPR105.  Family ``slabs``: RPR201..RPR209 over the flat-array
  backends (dtype discipline, copy-vs-view hazards, object-layer leaks,
  effect purity).  Family ``parsafe``: RPR302, RPR305 and RPR308 over
  the thread targets and ``@owns`` workers of the whole package
  (``paruf_sync``'s round task and ``paruf_threaded``'s threads): writes
  outside the declared partition, unjoined threads, undeclared
  shared-slab writes.

* **Runtime contracts** -- ``@slab_contract``
  (:mod:`repro.checkers.contracts`, verified when
  ``REPRO_SLAB_CONTRACTS`` is set), ``@owns`` ownership windows
  (:mod:`repro.checkers.ownership`, verified when
  ``REPRO_OWNERSHIP_CHECKS`` is set), and the adversarial-interleaving
  battery :func:`repro.checkers.runner.run_interleaving_battery`.

This module must stay import-light: the instrumented structures import
:mod:`repro.checkers.access` at module load, so it never imports the
analyzer or the runner.
"""

from repro.checkers.access import (
    RoundRecorder,
    TaskAccessLog,
    commit_phase,
    record_atomic,
    record_read,
    record_write,
)
from repro.checkers.contracts import (
    SlabContract,
    checked,
    contracts_enabled,
    get_contract,
    slab_contract,
)
from repro.checkers.ownership import (
    OwnsDecl,
    WindowSpec,
    checked_owns,
    get_owns,
    owns,
    ownership_enabled,
)
from repro.checkers.races import Conflict, check_recorder, find_conflicts

__all__ = [
    "RoundRecorder",
    "TaskAccessLog",
    "commit_phase",
    "record_read",
    "record_write",
    "record_atomic",
    "Conflict",
    "find_conflicts",
    "check_recorder",
    "SlabContract",
    "slab_contract",
    "checked",
    "contracts_enabled",
    "get_contract",
    "OwnsDecl",
    "WindowSpec",
    "owns",
    "checked_owns",
    "get_owns",
    "ownership_enabled",
]
