"""Disabled-instrumentation fast paths must not change results.

Several algorithms (SeqUF's merge loop, the MST routines, and anything
built on ``UnionFind.find_many``) switch to a faster implementation when
instrumentation is inactive -- ``tracker`` absent or disabled and no
shadow-access recorder installed.  These tests pin the contract:

* every registered algorithm returns a bit-identical dendrogram with
  ``tracker=None``, ``CostTracker(enabled=False)``, and an enabled tracker;
* a disabled tracker accumulates no charges at all (``active_tracker``
  strips it before any per-operation site sees it).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import algorithm_backends
from repro.core.api import ALGORITHMS, resolve_algorithm
from repro.datasets.ladders import FAMILY_BUILDERS
from repro.runtime.cost_model import NULL_TRACKER, CostTracker, active_tracker
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
        out_disabled = fn(tree, tracker=CostTracker(enabled=False), **opts)
        assert np.array_equal(ref, out_none), (name, family, n, "tracker=None")
        assert np.array_equal(ref, out_disabled), (name, family, n, "disabled")
        # The enabled run actually charged something (m >= 1 edges here).
        assert enabled.work > 0.0, (name, family, n)


@pytest.mark.parametrize("name,backend", _PAIRS)
def test_disabled_tracker_charges_nothing(name, backend):
    fn = resolve_algorithm(name, backend)
    tree = path_tree(32) if name == "cartesian" else FAMILY_BUILDERS["random"](32)
    disabled = CostTracker(enabled=False)
    fn(tree, tracker=disabled, **_OPTIONS.get(name, {}))
    assert disabled.work == 0.0 and disabled.depth == 0.0


def test_active_tracker_strips_inactive():
    assert active_tracker(None) is None
    assert active_tracker(NULL_TRACKER) is None
    assert active_tracker(CostTracker(enabled=False)) is None
    t = CostTracker()
    assert active_tracker(t) is t


def test_disabled_path_skips_charge_calls():
    """The fast path must not even *call* the disabled tracker.

    ``active_tracker`` is the gate: after normalization the algorithm's
    charge sites test ``tracker is not None``, so a disabled tracker never
    sees ``add``/``sequential`` calls.  Pin that with a tattling subclass.
    """

    class Tattling(CostTracker):
        __slots__ = ("calls",)

        def __init__(self) -> None:
            super().__init__(enabled=False)
            self.calls = 0

        def add(self, cost):  # noqa: ANN001
            self.calls += 1

        def sequential(self, work, depth=None):  # noqa: ANN001
            self.calls += 1

    for name in ("sequf", "tree-contraction", "brute"):
        tracker = Tattling()
        tree = FAMILY_BUILDERS["random"](48)
        ALGORITHMS[name](tree, tracker=tracker, **_OPTIONS.get(name, {}))
        assert tracker.calls == 0, name
