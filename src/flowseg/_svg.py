"""Minimal deterministic SVG line charts.

Pure string assembly: identical inputs give identical bytes, which the CLI's
reproducibility contract requires of plot files.  No external renderer.
"""
from __future__ import annotations

from .geometry import _check_aligned

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f")

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 64
_MARGIN_R = 18
_MARGIN_T = 38
_MARGIN_B = 48


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _fmt(v: float) -> str:
    return format(float(v), ".2f")


class Series:
    """One polyline: a label, x/y samples, and optional dashing.  Its color
    is the palette's, by its place in the chart."""

    def __init__(self, label, xs, ys, dash=False):
        _check_aligned(xs, f"series {label!r} xs", ys=ys)
        self.label = label
        self.xs = [float(x) for x in xs]
        self.ys = [float(y) for y in ys]
        self.dash = dash


def _bounds(values):
    lo = min(values)
    hi = max(values)
    if lo == hi:
        lo -= 1.0
        hi += 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_chart(title, xlabel, ylabel, series, *, equal_aspect=False) -> str:
    """Render series as an SVG line chart and return the document text."""
    if not series:
        raise ValueError("chart needs at least one series")
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    x_lo, x_hi = _bounds([x for s in series for x in s.xs])
    y_lo, y_hi = _bounds([y for s in series for y in s.ys])
    if equal_aspect:
        unit = max((x_hi - x_lo) / plot_w, (y_hi - y_lo) / plot_h)
        x_mid = (x_lo + x_hi) / 2.0
        y_mid = (y_lo + y_hi) / 2.0
        x_lo, x_hi = x_mid - unit * plot_w / 2.0, x_mid + unit * plot_w / 2.0
        y_lo, y_hi = y_mid - unit * plot_h / 2.0, y_mid + unit * plot_h / 2.0

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
           f'<text x="{_WIDTH // 2}" y="22" text-anchor="middle" '
           f'font-family="sans-serif" font-size="15">{_escape(title)}</text>']
    # grid and tick labels
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4.0
        fy = y_lo + (y_hi - y_lo) * i / 4.0
        gx = _fmt(px(fx))
        gy = _fmt(py(fy))
        out.append(f'<line x1="{gx}" y1="{_MARGIN_T}" x2="{gx}" '
                   f'y2="{_MARGIN_T + plot_h}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<line x1="{_MARGIN_L}" y1="{gy}" x2="{_MARGIN_L + plot_w}" '
                   f'y2="{gy}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{gx}" y="{_HEIGHT - _MARGIN_B + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{format(fx, ".4g")}</text>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{gy}" text-anchor="end" '
                   f'dominant-baseline="middle" font-family="sans-serif" '
                   f'font-size="11">{format(fy, ".4g")}</text>')
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 10}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="13">{_escape(xlabel)}</text>')
    out.append(f'<text x="16" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 16 {_MARGIN_T + plot_h // 2})">'
               f'{_escape(ylabel)}</text>')
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="6,4"' if s.dash else ""
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}"
                       for x, y in zip(s.xs, s.ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        ly = _MARGIN_T + 14 + 16 * i
        lx = _MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{_escape(s.label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
