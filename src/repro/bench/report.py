"""Rendering of experiment results as paper-style tables and series.

Figures are rendered as the data series behind them (one labelled row of
(x, y) points per line in the figure) plus a coarse ASCII log-scale chart
— enough to eyeball the trends the paper's figures show.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from typing import Any


def format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    note: str | None = None,
) -> str:
    """ASCII table in the style of the paper's tables."""
    rendered = [[format_value(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]

    def line(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [f"== {title} ==", line(headers), "-+-".join("-" * w for w in widths)]
    out += [line(r) for r in rendered]
    if note:
        out.append(f"   note: {note}")
    return "\n".join(out)


def format_series(
    title: str, x_values: Sequence[Any], series: Mapping[str, Sequence[float]]
) -> str:
    """Render a figure as its data series (average times in ms) plus an
    ASCII log-scale chart."""
    headers = ["series"] + [str(x) for x in x_values]
    rows = [[label] + list(values) for label, values in series.items()]
    table = format_table(f"{title} [avg time (ms)]", headers, rows)
    return table + "\n" + _ascii_log_chart(series)


#: Bar length of the largest value in a log-scale chart.
_CHART_WIDTH = 50


def _ascii_log_chart(series: Mapping[str, Sequence[float]]) -> str:
    """One bar per (series, last x): log-scale magnitude comparison."""
    finals = {label: values[-1] for label, values in series.items() if values}
    positives = [v for v in finals.values() if v > 0]
    if not positives:
        return ""
    low = math.log10(min(positives))
    high = math.log10(max(positives))
    span = max(high - low, 1e-9)
    lines = ["   log-scale at largest size:"]
    label_width = max(len(label) for label in finals)
    for label, value in finals.items():
        if value <= 0:
            bar = 0
        else:
            bar = 1 + int((math.log10(value) - low) / span * (_CHART_WIDTH - 1))
        lines.append(f"   {label.ljust(label_width)} |{'#' * bar} {format_value(value)}")
    return "\n".join(lines)


def ratio_note(label_a: str, a: float, label_b: str, b: float) -> str:
    """'Bounded is 9.3x faster than Hybrid'-style note."""
    if a <= 0 or b <= 0:
        return f"{label_a}={format_value(a)}, {label_b}={format_value(b)}"
    if a <= b:
        return f"{label_a} is {b / a:.1f}x faster than {label_b}"
    return f"{label_b} is {a / b:.1f}x faster than {label_a}"
