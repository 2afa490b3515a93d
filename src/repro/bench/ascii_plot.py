"""Terminal charts for the figure-reproduction harnesses.

The paper's Figures 6 and 8 are log-log running-time-vs-threads plots;
this helper renders the same series as a character chart so
``python -m repro.bench.fig6`` produces an actual *figure*, not only a
table.
"""

from __future__ import annotations

import math

__all__ = ["line_chart"]


def line_chart(
    series: dict[str, list[float]],
    x_labels: list,
    height: int = 10,
    log_y: bool = True,
    title: str | None = None,
) -> str:
    """Multi-series scatter chart on a character grid.

    Each series gets a marker (its name's first letter); the y axis is
    logarithmic by default, matching the paper's plots.  Collisions show
    the later series' marker with a ``*`` when two coincide.
    """
    names = list(series)
    if not names:
        return ""
    width = len(x_labels)
    if any(len(v) != width for v in series.values()):
        raise ValueError("all series must have one value per x label")

    def transform(v: float) -> float:
        if log_y:
            return math.log10(max(v, 1e-12))
        return v

    flat = [transform(v) for vals in series.values() for v in vals]
    lo, hi = min(flat), max(flat)
    span = hi - lo or 1.0

    grid = [[" "] * width for _ in range(height)]
    markers = {}
    for name in names:
        marker = name[0].upper()
        while marker in markers.values():
            marker = chr(ord(marker) + 1)
        markers[name] = marker
    for name in names:
        for x, v in enumerate(series[name]):
            y = int((transform(v) - lo) / span * (height - 1) + 0.5)
            row = height - 1 - y
            cell = grid[row][x]
            grid[row][x] = markers[name] if cell == " " else "*"

    lines = []
    if title:
        lines.append(title)
    top_label = f"{10 ** hi:.3g}s" if log_y else f"{hi:.3g}"
    bot_label = f"{10 ** lo:.3g}s" if log_y else f"{lo:.3g}"
    for i, row in enumerate(grid):
        if i == 0:
            label = top_label
        elif i == height - 1:
            label = bot_label
        else:
            label = ""
        lines.append(f"{label:>9} |" + "".join(row))
    axis = "".join(str(x)[0] for x in x_labels)
    lines.append(" " * 9 + " +" + "-" * width)
    lines.append(" " * 11 + axis + "   (threads: " + ",".join(str(x) for x in x_labels) + ")")
    lines.append(
        " " * 11 + "legend: " + ", ".join(f"{m}={n}" for n, m in markers.items())
    )
    return "\n".join(lines)
