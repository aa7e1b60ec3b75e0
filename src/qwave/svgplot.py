"""Minimal hand-rolled SVG line charts (no plotting dependency).

Good enough for the report artifacts: multiple series, linear or log axes,
optional symmetric error bars, a small legend.  Charts are deterministic
functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

_PALETTE = ("#1f6fb2", "#e07b39", "#3d9970", "#b23b3b", "#7d5ba6", "#666666")
_WIDTH, _HEIGHT = 720, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 64.0, 16.0, 28.0, 44.0


@dataclass(frozen=True)
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]
    errs: Sequence[float] | None = None

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("series needs one y per x")
        if self.errs is not None and len(self.errs) != len(self.ys):
            raise ValueError("series needs one error bar per point")


@dataclass
class _Axis:
    lo: float
    hi: float
    log: bool
    pixels: float
    offset: float
    flip: bool = False
    ticks: list[float] = field(default_factory=list)

    def place(self, value: float) -> float:
        lo, hi, v = self.lo, self.hi, value
        if self.log:
            lo, hi, v = math.log10(lo), math.log10(hi), math.log10(v)
        frac = 0.5 if hi == lo else (v - lo) / (hi - lo)
        if self.flip:
            frac = 1.0 - frac
        return self.offset + frac * self.pixels


def _data_range(values: list[float], log: bool) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if log:
        if lo <= 0:
            raise ValueError("log axis needs positive data")
        if lo == hi:
            lo, hi = lo / 10.0, hi * 10.0
        return lo, hi
    if lo == hi:
        pad = 1.0 if lo == 0 else abs(lo) * 0.5
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        first, last = math.ceil(math.log10(lo) - 1e-9), math.floor(math.log10(hi) + 1e-9)
        decades = [10.0 ** d for d in range(first, last + 1)]
        if len(decades) > 8:
            step = math.ceil(len(decades) / 8)
            decades = decades[::step]
        return decades or [lo, hi]
    raw = (hi - lo) / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def _fmt(value: float) -> str:
    if value != 0 and (abs(value) >= 1e4 or abs(value) < 1e-3):
        return f"{value:.0e}"
    return f"{value:g}"


def line_chart(
    series: Sequence[Series],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """A standalone SVG with one polyline per series, as text: a caller renders it before it writes anything."""
    if not series or all(len(s.xs) == 0 for s in series):
        raise ValueError("nothing to plot")
    xs_all = [float(x) for s in series for x in s.xs]
    ys_all = [float(y) for s in series for y in s.ys]
    for s in series:
        if s.errs is not None and not logy:
            ys_all += [y - e for y, e in zip(s.ys, s.errs)]
            ys_all += [y + e for y, e in zip(s.ys, s.errs)]
    x_lo, x_hi = _data_range(xs_all, logx)
    y_lo, y_hi = _data_range(ys_all, logy)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x_axis = _Axis(x_lo, x_hi, logx, plot_w, _MARGIN_LEFT, ticks=_ticks(x_lo, x_hi, logx))
    y_axis = _Axis(y_lo, y_hi, logy, plot_h, _MARGIN_TOP, flip=True, ticks=_ticks(y_lo, y_hi, logy))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    bottom, left = _MARGIN_TOP + plot_h, _MARGIN_LEFT
    for tick in x_axis.ticks:
        px = x_axis.place(tick)
        out.append(f'<line x1="{px:.1f}" y1="{_MARGIN_TOP}" x2="{px:.1f}" y2="{bottom:.1f}" stroke="#dddddd"/>')
        out.append(f'<text x="{px:.1f}" y="{bottom + 16:.1f}" text-anchor="middle">{_fmt(tick)}</text>')
    for tick in y_axis.ticks:
        py = y_axis.place(tick)
        out.append(f'<line x1="{left}" y1="{py:.1f}" x2="{left + plot_w:.1f}" y2="{py:.1f}" stroke="#dddddd"/>')
        out.append(f'<text x="{left - 6:.1f}" y="{py + 4:.1f}" text-anchor="end">{_fmt(tick)}</text>')
    out.append(
        f'<rect x="{left}" y="{_MARGIN_TOP}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
        f'fill="none" stroke="#333333"/>'
    )
    if title:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>')
    if xlabel:
        out.append(f'<text x="{left + plot_w / 2:.1f}" y="{_HEIGHT - 8:.1f}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(
            f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:.1f})">{ylabel}</text>'
        )

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{x_axis.place(float(x)):.2f},{y_axis.place(float(y)):.2f}" for x, y in zip(s.xs, s.ys)
        )
        if len(s.xs) > 1:
            out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(s.xs, s.ys):
            out.append(
                f'<circle cx="{x_axis.place(float(x)):.2f}" cy="{y_axis.place(float(y)):.2f}" '
                f'r="2.5" fill="{color}"/>'
            )
        if s.errs is not None:
            for x, y, e in zip(s.xs, s.ys, s.errs):
                lo_v, hi_v = float(y) - float(e), float(y) + float(e)
                if logy:
                    lo_v = max(lo_v, y_axis.lo)
                px = x_axis.place(float(x))
                y1, y2 = y_axis.place(hi_v), y_axis.place(lo_v)
                out.append(f'<line x1="{px:.2f}" y1="{y1:.2f}" x2="{px:.2f}" y2="{y2:.2f}" stroke="{color}"/>')
                out.append(f'<line x1="{px - 3:.2f}" y1="{y1:.2f}" x2="{px + 3:.2f}" y2="{y1:.2f}" stroke="{color}"/>')
                out.append(f'<line x1="{px - 3:.2f}" y1="{y2:.2f}" x2="{px + 3:.2f}" y2="{y2:.2f}" stroke="{color}"/>')
        label_y = _MARGIN_TOP + 14 + 14 * idx
        out.append(
            f'<line x1="{left + plot_w - 110:.1f}" y1="{label_y - 4:.1f}" '
            f'x2="{left + plot_w - 92:.1f}" y2="{label_y - 4:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{left + plot_w - 88:.1f}" y="{label_y:.1f}">{s.label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
