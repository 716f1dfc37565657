"""Metrics export (CSV) and standalone SVG line charts.

Both formats are dependency-free and byte-deterministic: floats are written
with Python's shortest round-trip repr, '.' decimal separator, newline-fixed
binary output. The CSV schema is versioned by a comment line ahead of the
header and is append-only.
"""

from __future__ import annotations

import warnings

import numpy as np

from .drivers import MetricsRecord, RunReport
from .errors import ParameterError

CSV_SCHEMA_LINE = "# fedbilevel-metrics-v1"
CSV_HEADER = ",".join(MetricsRecord._fields)
LOG_FLOOR = 1e-16

X_AXES = ("rounds_cum", "k")
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def export_csv(report: RunReport, path) -> None:
    """Write one row per metrics record; identical reports give identical bytes."""
    if not report.rows:
        raise ParameterError("cannot export an empty report")
    lines = [CSV_SCHEMA_LINE, CSV_HEADER,
             *(",".join(map(_fmt, row)) for row in report.rows)]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def render_svg(reports: list[RunReport], x_axis: str, y_axis: str, path,
               log_y: bool = False, width: int = 640, height: int = 420) -> None:
    """Standalone SVG line chart, one polyline per report, optional log y-axis.

    Non-positive values on a log axis are clamped to the 1e-16 floor and a
    warning is recorded.
    """
    if x_axis not in X_AXES:
        raise ParameterError(f"x_axis must be one of {X_AXES}")
    if y_axis not in MetricsRecord._fields:
        raise ParameterError(f"unknown metric {y_axis!r}")
    if not reports:
        raise ParameterError("need at least one report")

    series = []
    for rep in reports:
        xs, ys = rep.column(x_axis), rep.column(y_axis)
        if log_y:
            if np.any(ys < LOG_FLOOR):
                warnings.warn(f"log-scale clamped {int(np.sum(ys < LOG_FLOOR))} "
                              f"value(s) of {y_axis} to {LOG_FLOOR:g}")
                ys = np.maximum(ys, LOG_FLOOR)
            ys = np.log10(ys)
        series.append((rep.label, xs, ys))

    all_x = np.concatenate([s[1] for s in series])
    all_y = np.concatenate([s[2] for s in series])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    ml, mr, mt, mb = 70, 20, 20, 45
    pw, ph = width - ml - mr, height - mt - mb

    def sx(v):
        return ml + pw * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return mt + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    y_label = f"log10({y_axis})" if log_y else y_axis
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml}" y="{height - 8}" font-size="12">{_fmt(x_lo)}</text>',
        f'<text x="{ml + pw - 40}" y="{height - 8}" font-size="12">{_fmt(x_hi)}</text>',
        f'<text x="4" y="{mt + ph}" font-size="12">{_fmt(y_lo)}</text>',
        f'<text x="4" y="{mt + 12}" font-size="12">{_fmt(y_hi)}</text>',
        f'<text x="{ml + pw // 2 - 30}" y="{height - 8}" font-size="12">{x_axis}</text>',
        f'<text x="4" y="{mt + ph // 2}" font-size="12" transform="rotate(-90 12 {mt + ph // 2})">'
        f'{y_label}</text>',
    ]
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                          for a, b in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{coords}"/>')
        ty = mt + 16 + 16 * idx
        parts.append(f'<line x1="{ml + pw - 110}" y1="{ty - 4}" x2="{ml + pw - 90}" '
                     f'y2="{ty - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 84}" y="{ty}" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "wb") as fh:
        fh.write("\n".join(parts).encode("ascii"))
