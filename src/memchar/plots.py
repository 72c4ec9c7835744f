"""Figure emission: heat maps and grouped bar charts as diffable SVG.

Plots are derived artifacts; the plot-data text file written next to each
SVG contains exactly the plotted numbers and is the contract downstream
tooling should parse.  SVG output is deterministic text with no external
dependencies.

A plot's axes and value are result columns, named by their CSV headers.
The plottable ones, and how each is read off a record, are marked in the
``results`` tables (:data:`memchar.results.LATENCY_TABLE` and
:data:`memchar.results.BANDWIDTH_TABLE`); a bandwidth plot's ``cores`` is
the core count.

Both files are written with :func:`memchar.results.write_output`, which
overwrites a file from a previous report in place instead of truncating
it (on ext4 a truncating rewrite costs about ten times as much; see the
``results`` module).  Nothing is fsynced, and a crash mid-write can leave
the new text followed by the tail of the old file.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .harness import MeasurementRecord
from .results import BANDWIDTH_TABLE, LATENCY_TABLE, write_output

__all__ = ["PlotError", "PlotData", "PLOT_KINDS", "emit_plot", "build_plot_data"]

# The figures emit_plot draws.
PLOT_KINDS = ("heatmap", "grouped_bars")

_CELL = 64
_MARGIN_LEFT = 110
_MARGIN_TOP = 60
_BAR_W = 36
_PLOT_H = 260


class PlotError(Exception):
    pass


@dataclass
class PlotData:
    """The numbers a plot draws: axis labels plus value (and error) grids."""

    kind: str  # heatmap | grouped_bars
    x_labels: list[str]
    y_labels: list[str]
    values: list[list[float]]  # rows = y, cols = x
    unit: str
    lows: Optional[list[list[float]]] = None
    highs: Optional[list[list[float]]] = None
    title: str = ""

    def to_text(self) -> str:
        lines = [f"# kind={self.kind} unit={self.unit} title={self.title}"]
        lines.append("\t".join(["y\\x"] + [str(x) for x in self.x_labels]))
        for ylab, row in zip(self.y_labels, self.values):
            lines.append("\t".join([str(ylab)] + [repr(v) for v in row]))
        if self.lows is not None and self.highs is not None:
            lines.append("# error bars: low/high")
            for ylab, row in zip(self.y_labels, self.lows):
                lines.append("\t".join([f"{ylab}:low"] + [repr(v) for v in row]))
            for ylab, row in zip(self.y_labels, self.highs):
                lines.append("\t".join([f"{ylab}:high"] + [repr(v) for v in row]))
        return "\n".join(lines) + "\n"


def _plot_getters(table) -> dict:
    """Each plottable column of a results table -> the getter of its plotted
    value."""
    return {name: operator.attrgetter(field) if plot is True else plot
            for name, field, _, plot, *_ in table if plot}


_LATENCY_GETTERS = _plot_getters(LATENCY_TABLE)
_BANDWIDTH_GETTERS = _plot_getters(BANDWIDTH_TABLE)


def _field_of(record, name: str):
    getters = _LATENCY_GETTERS if isinstance(record, MeasurementRecord) else _BANDWIDTH_GETTERS
    if name not in getters:
        raise PlotError(f"record has no plottable field {name!r}")
    return getters[name](record)


def build_plot_data(
    records: Sequence,
    kind: str,
    x: str,
    y: str,
    value: str = "latency_cycles",
    title: str = "",
) -> PlotData:
    """Arrange records on an (x, y) grid; every cell must be present once."""
    if not records:
        raise PlotError("no records to plot")
    kinds = {type(r) for r in records}
    if len(kinds) > 1:
        raise PlotError("mixed record types (mixed units) cannot share a plot")
    freqs = {r.frequency_mhz for r in records}
    if len(freqs) > 1:
        raise PlotError("mixed frequencies (mixed units) cannot share a plot")
    unit = "cycles" if isinstance(records[0], MeasurementRecord) else (
        "GB/s" if value == "bandwidth_gbps" else "B/cycle"
    )
    cells = {}
    for r in records:
        key = (_field_of(r, y), _field_of(r, x))
        if key in cells:
            raise PlotError(f"duplicate cell for (y={key[0]}, x={key[1]})")
        cells[key] = r
    y_labels = sorted({k[0] for k in cells}, key=lambda v: (str(type(v)), v))
    x_labels = sorted({k[1] for k in cells}, key=lambda v: (str(type(v)), v))
    values, lows, highs = [], [], []
    has_err = isinstance(records[0], MeasurementRecord)
    for yl in y_labels:
        row, lo, hi = [], [], []
        for xl in x_labels:
            if (yl, xl) not in cells:
                raise PlotError(
                    f"mismatched axes: no record for (y={yl}, x={xl})"
                )
            r = cells[(yl, xl)]
            row.append(float(_field_of(r, value)))
            if has_err:
                lo.append(r.min_cycles)
                hi.append(r.max_cycles)
        values.append(row)
        lows.append(lo)
        highs.append(hi)
    return PlotData(
        kind=kind,
        x_labels=[str(v) for v in x_labels],
        y_labels=[str(v) for v in y_labels],
        values=values,
        unit=unit,
        lows=lows if has_err else None,
        highs=highs if has_err else None,
        title=title,
    )


def _color(v: float, vmin: float, vmax: float) -> str:
    t = 0.0 if vmax <= vmin else (v - vmin) / (vmax - vmin)
    r = int(40 + t * 200)
    g = int(70 + (1 - abs(t - 0.5) * 2) * 90)
    b = int(240 - t * 200)
    return f"rgb({r},{g},{b})"


def _svg_header(w: int, h: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="monospace" font-size="12">',
        f'<title>{title}</title>',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]


def _heatmap_svg(data: PlotData) -> str:
    rows, cols = len(data.y_labels), len(data.x_labels)
    w = _MARGIN_LEFT + cols * _CELL + 20
    h = _MARGIN_TOP + rows * _CELL + 30
    flat = [v for row in data.values for v in row]
    vmin, vmax = min(flat), max(flat)
    out = _svg_header(w, h, data.title or "heatmap")
    out.append(f'<text x="{_MARGIN_LEFT}" y="20">{data.title} [{data.unit}]</text>')
    for j, xl in enumerate(data.x_labels):
        out.append(
            f'<text x="{_MARGIN_LEFT + j * _CELL + _CELL // 2}" y="{_MARGIN_TOP - 8}" '
            f'text-anchor="middle">{xl}</text>'
        )
    for i, yl in enumerate(data.y_labels):
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{_MARGIN_TOP + i * _CELL + _CELL // 2 + 4}" '
            f'text-anchor="end">{yl}</text>'
        )
        for j, v in enumerate(data.values[i]):
            x0 = _MARGIN_LEFT + j * _CELL
            y0 = _MARGIN_TOP + i * _CELL
            out.append(
                f'<rect x="{x0}" y="{y0}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_color(v, vmin, vmax)}" stroke="white"/>'
            )
            out.append(
                f'<text x="{x0 + _CELL // 2}" y="{y0 + _CELL // 2 + 4}" '
                f'text-anchor="middle" fill="white">{v:g}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _bars_svg(data: PlotData) -> str:
    groups = len(data.x_labels)
    series = len(data.y_labels)
    group_w = series * _BAR_W + 24
    w = _MARGIN_LEFT + groups * group_w + 20
    h = _MARGIN_TOP + _PLOT_H + 60
    flat = [v for row in data.values for v in row]
    tops = [v for row in (data.highs or data.values) for v in row]
    vmax = max(tops + flat) or 1.0
    base_y = _MARGIN_TOP + _PLOT_H
    out = _svg_header(w, h, data.title or "grouped bars")
    out.append(f'<text x="{_MARGIN_LEFT}" y="20">{data.title} [{data.unit}]</text>')
    out.append(
        f'<line x1="{_MARGIN_LEFT - 10}" y1="{base_y}" x2="{w - 10}" y2="{base_y}" stroke="black"/>'
    )
    palette = ["#3465a4", "#cc0000", "#4e9a06", "#f57900", "#75507b", "#c17d11"]
    for i, yl in enumerate(data.y_labels):
        out.append(
            f'<rect x="{_MARGIN_LEFT + i * 90}" y="{30}" width="10" height="10" '
            f'fill="{palette[i % len(palette)]}"/>'
            f'<text x="{_MARGIN_LEFT + i * 90 + 14}" y="{40}">{yl}</text>'
        )
    for j, xl in enumerate(data.x_labels):
        gx = _MARGIN_LEFT + j * group_w
        out.append(
            f'<text x="{gx + group_w // 2}" y="{base_y + 18}" text-anchor="middle">{xl}</text>'
        )
        for i in range(series):
            v = data.values[i][j]
            bh = int(v / vmax * _PLOT_H)
            bx = gx + i * _BAR_W
            out.append(
                f'<rect x="{bx}" y="{base_y - bh}" width="{_BAR_W - 6}" height="{bh}" '
                f'fill="{palette[i % len(palette)]}"/>'
            )
            if data.lows is not None and data.highs is not None:
                lo = int(data.lows[i][j] / vmax * _PLOT_H)
                hi = int(data.highs[i][j] / vmax * _PLOT_H)
                cx = bx + (_BAR_W - 6) // 2
                out.append(
                    f'<line x1="{cx}" y1="{base_y - lo}" x2="{cx}" y2="{base_y - hi}" '
                    f'stroke="black"/>'
                    f'<line x1="{cx - 5}" y1="{base_y - hi}" x2="{cx + 5}" y2="{base_y - hi}" '
                    f'stroke="black"/>'
                    f'<line x1="{cx - 5}" y1="{base_y - lo}" x2="{cx + 5}" y2="{base_y - lo}" '
                    f'stroke="black"/>'
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plot(
    records: Sequence,
    kind: str,
    out_base: str | Path,
    x: str,
    y: str,
    value: str = "latency_cycles",
    title: str = "",
) -> tuple[Path, Path]:
    """Write <out_base>.svg and <out_base>.txt; returns both paths.  The
    suffixes are appended, so a dot in the name stays (``fig.v2`` writes
    ``fig.v2.svg``).

    The .txt plot-data file is authoritative: it holds exactly the numbers
    drawn in the figure.
    """
    if kind not in PLOT_KINDS:
        raise PlotError(f"unknown plot kind {kind!r}")
    data = build_plot_data(records, kind, x=x, y=y, value=value, title=title)
    svg = _heatmap_svg(data) if kind == "heatmap" else _bars_svg(data)
    base = Path(out_base)
    svg_path = base.with_name(base.name + ".svg")
    txt_path = base.with_name(base.name + ".txt")
    write_output(svg_path, svg)
    write_output(txt_path, data.to_text())
    return svg_path, txt_path
