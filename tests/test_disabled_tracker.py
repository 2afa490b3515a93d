"""Uninstrumented fast paths must not change results, and must cost nothing.

Several algorithms (SeqUF's merge loop, the MST routines, and anything
built on ``UnionFind.find_many``) switch to a faster implementation when
instrumentation is off -- ``tracker=None``, the one off switch, and no
shadow-access recorder installed.  These tests pin the contract:

* every registered algorithm returns a bit-identical dendrogram with
  ``tracker=None`` and with an enabled tracker;
* with instrumentation off, no phase span reads the clock and no
  :class:`CostTracker` is charged, not even one built internally.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import algorithm_backends
from repro.checkers import access
from repro.core.api import ALGORITHMS, resolve_algorithm
from repro.datasets.ladders import FAMILY_BUILDERS
from repro.runtime import instrumentation
from repro.runtime.cost_model import CostTracker, instrumented
from repro.trees.generators import path_tree

SIZES = (2, 17, 96)

#: Options pinning every seeded algorithm (either backend) so runs are comparable.
_OPTIONS: dict[str, dict] = {
    "paruf": {"seed": 0},
    "paruf-sync": {"seed": 0},
    "rctt": {"seed": 0},
    "tree-contraction": {"seed": 0},
    "tree-contraction-list": {"seed": 0},
}

#: Every (algorithm, backend) the registry dispatches.
_PAIRS = algorithm_backends(sorted(ALGORITHMS))


def _cases():
    for param in _PAIRS:
        name, backend = param.values
        families = ("path",) if name == "cartesian" else tuple(FAMILY_BUILDERS)
        for family in families:
            yield pytest.param(name, backend, family, id=f"{param.id}-{family}")


@pytest.mark.parametrize("name,backend,family", list(_cases()))
def test_disabled_tracker_bit_identical(name, backend, family):
    fn = resolve_algorithm(name, backend)
    build = FAMILY_BUILDERS[family]
    opts = _OPTIONS.get(name, {})
    for n in SIZES:
        tree = build(n)
        enabled = CostTracker()
        ref = fn(tree, tracker=enabled, **opts)
        out_none = fn(tree, tracker=None, **opts)
        assert np.array_equal(ref, out_none), (name, family, n, "tracker=None")
        # The enabled run actually charged something (m >= 1 edges here).
        assert enabled.work > 0.0, (name, family, n)


@pytest.mark.parametrize("name,backend", _PAIRS)
def test_disabled_tracker_charges_nothing(name, backend, monkeypatch):
    """With ``tracker=None`` and no recording block, no span reads the clock."""

    def clock():
        raise AssertionError("a phase span read the clock outside a recording block")

    monkeypatch.setattr(instrumentation, "_clock", clock)
    fn = resolve_algorithm(name, backend)
    tree = path_tree(32) if name == "cartesian" else FAMILY_BUILDERS["random"](32)
    fn(tree, tracker=None, **_OPTIONS.get(name, {}))


def test_instrumented_predicate():
    assert instrumented(None) is False
    assert instrumented(CostTracker()) is True
    recorder = access.RoundRecorder(where="test")
    access.install(recorder)
    try:
        assert instrumented(None) is True
    finally:
        access.uninstall(recorder)


def test_disabled_path_skips_charge_calls(monkeypatch):
    """The fast path must not even *call* a tracker.

    Charge sites test ``tracker is not None``, and nothing builds a private
    tracker to stand in for a missing one (the ``Scheduler`` behind
    paruf-sync charges only a tracker it was given).  Pin that by counting
    every charge call on the class.
    """
    calls = []
    monkeypatch.setattr(CostTracker, "add", lambda self, cost: calls.append(cost))
    monkeypatch.setattr(
        CostTracker, "sequential", lambda self, work, depth=None: calls.append(work)
    )
    for name in ("sequf", "tree-contraction", "brute", "paruf-sync"):
        tree = FAMILY_BUILDERS["random"](48)
        ALGORITHMS[name](tree, tracker=None, **_OPTIONS.get(name, {}))
        assert calls == [], name
