"""Terminal chart rendering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.ascii_plot import line_chart


class TestLineChart:
    def test_contains_all_markers_and_legend(self):
        chart = line_chart(
            {"sequf": [1.0, 0.9], "paruf": [1.0, 0.1]}, [1, 192], height=5
        )
        assert "S=sequf" in chart
        assert "P=paruf" in chart
        assert "S" in chart and "P" in chart

    def test_marker_collision_disambiguated(self):
        chart = line_chart({"alpha": [1.0, 2.0], "apex": [3.0, 4.0]}, [1, 2], height=4)
        assert "A=alpha" in chart
        assert "B=apex" in chart  # bumped to the next letter

    def test_log_scale_labels(self):
        chart = line_chart({"x": [0.01, 10.0]}, [1, 2], height=4, log_y=True)
        assert "10s" in chart
        assert "0.01s" in chart

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one value per x label"):
            line_chart({"x": [1.0]}, [1, 2])

    def test_empty_series(self):
        assert line_chart({}, []) == ""

    def test_title_first_line(self):
        chart = line_chart({"x": [1.0, 2.0]}, [1, 2], title="T")
        assert chart.splitlines()[0] == "T"

    @settings(max_examples=30, deadline=None)
    @given(
        vals=st.lists(st.floats(0.001, 100), min_size=2, max_size=9),
        height=st.integers(2, 20),
    )
    def test_grid_dimensions(self, vals, height):
        chart = line_chart({"x": vals}, list(range(len(vals))), height=height)
        lines = chart.splitlines()
        # height grid rows + axis + labels + legend
        assert len(lines) == height + 3
