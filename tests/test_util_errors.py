"""Small shared helpers and the exception hierarchy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import errors
from repro.util import check_random_state, geomean, log2ceil


class TestUtil:
    @pytest.mark.parametrize(
        "n,expected", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10), (1025, 11)]
    )
    def test_log2ceil(self, n, expected):
        assert log2ceil(n) == expected

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert math.isnan(geomean([]))
        assert geomean([2.0, -1.0, 8.0]) == pytest.approx(4.0)  # non-positive dropped

    def test_check_random_state(self):
        g = np.random.default_rng(0)
        assert check_random_state(g) is g
        a = check_random_state(7).integers(1000)
        b = check_random_state(7).integers(1000)
        assert a == b


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.InvalidTreeError, errors.ReproError)
        assert issubclass(errors.InvalidWeightsError, errors.ReproError)
        assert issubclass(errors.InvalidDendrogramError, errors.ReproError)
        assert issubclass(errors.NotConnectedError, errors.InvalidGraphError)
        assert issubclass(errors.EmptyHeapError, errors.ReproError)
        assert issubclass(errors.AlgorithmError, errors.ReproError)
        assert issubclass(errors.SchedulerError, errors.ReproError)

    def test_api_boundary_catchable_with_base_class(self):
        """A caller can guard the whole pipeline with one except clause."""
        from repro.trees.wtree import WeightedTree

        with pytest.raises(errors.ReproError):
            WeightedTree(3, np.array([[0, 1], [0, 1]]), np.ones(2))
