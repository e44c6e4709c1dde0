"""Minimal hand-rolled SVG line charts.

No external renderer: the chart is assembled from fixed-format strings so
identical inputs produce byte-identical files, which the determinism
contract of the sweep pipeline relies on.
"""

from __future__ import annotations

import io
import math

from .errors import InputFormatError

__all__ = ["render_lines"]

_WIDTH = 640.0
_HEIGHT = 400.0
_MARGIN_L = 70.0
_MARGIN_R = 20.0
_MARGIN_T = 40.0
_MARGIN_B = 50.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _label(x: float) -> str:
    return f"{x:.6g}"


def render_lines(x_label: str, xs: list[float], series: dict[str, list[float]],
                 title: str = "") -> str:
    """An SVG line chart: one polyline plus markers per series."""
    if not xs or not series:
        raise InputFormatError("nothing to plot: empty series")
    ys_all = [y for ys in series.values() for y in ys if math.isfinite(y)]
    if not ys_all:
        raise InputFormatError("nothing to plot: no finite values")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = io.StringIO()
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
              f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">\n')
    out.write(f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>\n')
    if title:
        out.write(f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
                  f'font-family="monospace" font-size="14">{title}</text>\n')
    # axes
    out.write(f'<line x1="{_fmt(_MARGIN_L)}" y1="{_fmt(_MARGIN_T)}" '
              f'x2="{_fmt(_MARGIN_L)}" y2="{_fmt(_HEIGHT - _MARGIN_B)}" '
              f'stroke="black" stroke-width="1"/>\n')
    out.write(f'<line x1="{_fmt(_MARGIN_L)}" y1="{_fmt(_HEIGHT - _MARGIN_B)}" '
              f'x2="{_fmt(_WIDTH - _MARGIN_R)}" y2="{_fmt(_HEIGHT - _MARGIN_B)}" '
              f'stroke="black" stroke-width="1"/>\n')
    # axis labels
    out.write(f'<text x="{_fmt(_MARGIN_L - 8)}" y="{_fmt(py(y_hi) + 4)}" text-anchor="end" '
              f'font-family="monospace" font-size="11">{_label(y_hi)}</text>\n')
    out.write(f'<text x="{_fmt(_MARGIN_L - 8)}" y="{_fmt(py(y_lo) + 4)}" text-anchor="end" '
              f'font-family="monospace" font-size="11">{_label(y_lo)}</text>\n')
    out.write(f'<text x="{_fmt(px(x_lo))}" y="{_fmt(_HEIGHT - _MARGIN_B + 18)}" '
              f'text-anchor="middle" font-family="monospace" font-size="11">'
              f'{_label(x_lo)}</text>\n')
    out.write(f'<text x="{_fmt(px(x_hi))}" y="{_fmt(_HEIGHT - _MARGIN_B + 18)}" '
              f'text-anchor="middle" font-family="monospace" font-size="11">'
              f'{_label(x_hi)}</text>\n')
    out.write(f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_HEIGHT - 12)}" text-anchor="middle" '
              f'font-family="monospace" font-size="12">{x_label}</text>\n')

    for idx, (name, ys) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys)
                       if math.isfinite(y))
        if pts:
            out.write(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                      f'stroke-width="1.5"/>\n')
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                out.write(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" '
                          f'fill="{color}"/>\n')
        ly = _MARGIN_T + 14.0 * idx
        out.write(f'<rect x="{_fmt(_WIDTH - _MARGIN_R - 150)}" y="{_fmt(ly)}" '
                  f'width="10" height="10" fill="{color}"/>\n')
        out.write(f'<text x="{_fmt(_WIDTH - _MARGIN_R - 135)}" y="{_fmt(ly + 9)}" '
                  f'font-family="monospace" font-size="11">{name}</text>\n')
    out.write("</svg>\n")
    return out.getvalue()
