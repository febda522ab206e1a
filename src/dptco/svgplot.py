"""Minimal static SVG line plots.

A deliberately small polyline writer so runs produce figures without any
plotting dependency.  A linear time axis, a log10 y scale, a handful of
ticks, and a text legend.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DptcoError

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2"]
_LOG_FLOOR = 1e-16
# title and labels are plain text, written with these escaped
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _ticks(lo: float, hi: float) -> list:
    """About five round-valued ticks covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def write_svg(path: str, series: list, title: str, ylabel: str) -> None:
    """Write labelled (label, x, y) series as one 720 x 460 SVG figure of
    log10 |y| against time t.

    |y| is clipped below at 1e-16 before taking log10 so exactly-zero
    samples stay plottable.
    """
    if not series:
        raise DptcoError("no series to plot")
    title, ylabel = title.translate(_ESCAPE), ylabel.translate(_ESCAPE)
    width, height = 720, 460
    ml, mr, mt, mb = 70, 20, 40, 50  # margins
    pw, ph = width - ml - mr, height - mt - mb

    prepared = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.log10(np.maximum(np.abs(np.asarray(y, dtype=float)),
                                _LOG_FLOOR))
        keep = np.isfinite(x) & np.isfinite(y)
        prepared.append((label.translate(_ESCAPE), x[keep], y[keep]))
    xs = np.concatenate([p[1] for p in prepared])
    ys = np.concatenate([p[2] for p in prepared])
    if xs.size == 0:
        raise DptcoError("all points non-finite")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{title}</text>',
    ]
    # axes
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" '
                 f'y2="{mt + ph}" stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
                 f'stroke="black"/>')
    for tv in _ticks(x_lo, x_hi):
        X = px(tv)
        parts.append(f'<line x1="{X:.1f}" y1="{mt + ph}" x2="{X:.1f}" '
                     f'y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{X:.1f}" y="{mt + ph + 18}" '
                     f'text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif">{tv:g}</text>')
    for tv in _ticks(y_lo, y_hi):
        Y = py(tv)
        parts.append(f'<line x1="{ml - 5}" y1="{Y:.1f}" x2="{ml}" '
                     f'y2="{Y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{Y + 4:.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">'
                     f'1e{tv:g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif">t</text>')
    parts.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif" '
                 f'transform="rotate(-90 16 {mt + ph / 2:.1f})">'
                 f'log10 {ylabel}</text>')

    for idx, (label, x, y) in enumerate(prepared):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.3"/>')
        ly = mt + 14 + 15 * idx
        parts.append(f'<line x1="{ml + pw - 120}" y1="{ly - 4}" '
                     f'x2="{ml + pw - 100}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 95}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise DptcoError(f"cannot write {path}: {exc}") from exc
