"""Static SVG time-series charts.

Hand-rolled emitter so the output is a pure function of the input series:
no fonts, timestamps, or library version strings sneak into the bytes.
Supports side-by-side panels for qualitative comparisons (for example an
analyzed access log next to a simulated exposure curve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_COLOR = "#1f77b4"

_PANEL_W = 420
_PANEL_H = 300
_MARGIN_L = 62
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 42


@dataclass
class Panel:
    title: str
    xs: list
    ys: list
    x_label: str = "tick"
    y_label: str = ""


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list:
    """Round tick positions covering [lo, hi]; deterministic."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    if math.isinf(raw):     # hi - lo overflows
        raw = hi / target - lo / target
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    below = int(lo / step) if lo >= 0 else int(lo / step) - 1
    first = step * below
    if math.isinf(first):   # the multiple below lo overflows; the next is >= lo
        first = step * (below + 1)
    ticks, t = [], first
    while t <= hi + step * 1e-9:
        if t >= lo - step * 1e-9:
            ticks.append(t)
        # t + step is t (the range is below the float spacing at t) or overflows.
        if not t < t + step < math.inf:
            break
        t += step
    return ticks


def _render_panel(panel: Panel, x_off: int, parts: list):
    x0 = x_off + _MARGIN_L
    y0 = _MARGIN_T
    plot_w = _PANEL_W - _MARGIN_L - _MARGIN_R
    plot_h = _PANEL_H - _MARGIN_T - _MARGIN_B

    xs, ys = panel.xs, panel.ys
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    # Past 2**53, x_lo + 1.0 can equal x_lo; a flat x axis is then one float step wide.
    if x_hi == x_lo:
        x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_lo = min(y_lo, 0.0)

    def px(v):
        return x0 + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return y0 + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts.append(f'<text x="{x0 + plot_w / 2:.1f}" y="{y0 - 14}" '
                 f'text-anchor="middle" font-size="13" font-weight="bold">'
                 f"{panel.title}</text>")
    parts.append(f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="#333" stroke-width="1"/>')

    for t in _nice_ticks(x_lo, x_hi):
        xt = px(t)
        parts.append(f'<line x1="{xt:.1f}" y1="{y0 + plot_h}" x2="{xt:.1f}" '
                     f'y2="{y0 + plot_h + 4}" stroke="#333"/>')
        parts.append(f'<text x="{xt:.1f}" y="{y0 + plot_h + 16}" '
                     f'text-anchor="middle" font-size="10">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        yt = py(t)
        parts.append(f'<line x1="{x0 - 4}" y1="{yt:.1f}" x2="{x0}" y2="{yt:.1f}" '
                     f'stroke="#333"/>')
        parts.append(f'<text x="{x0 - 7}" y="{yt + 3:.1f}" text-anchor="end" '
                     f'font-size="10">{_fmt(t)}</text>')

    parts.append(f'<text x="{x0 + plot_w / 2:.1f}" y="{y0 + plot_h + 32}" '
                 f'text-anchor="middle" font-size="11">{panel.x_label}</text>')
    if panel.y_label:
        cx, cy = x_off + 16, y0 + plot_h / 2
        parts.append(f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
                     f'font-size="11" transform="rotate(-90 {cx} {cy:.1f})">'
                     f"{panel.y_label}</text>")

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{_COLOR}" '
                 f'stroke-width="1.5"/>')


def render_time_series_svg(panels) -> str:
    """Render one or more panels side by side; same input, same bytes."""
    panels = list(panels)
    total_w = _PANEL_W * max(1, len(panels))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{_PANEL_H}" viewBox="0 0 {total_w} {_PANEL_H}" '
        f'font-family="sans-serif">',
        f'<rect width="{total_w}" height="{_PANEL_H}" fill="white"/>',
    ]
    for i, panel in enumerate(panels):
        _render_panel(panel, i * _PANEL_W, parts)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
