"""Self-contained SVG scatter charts; no plotting framework.

One generic renderer covers all sixteen figures: linear or log axes,
an optional second series, an optional fitted line, and optional vertical
marker lines (arch centers).  Output is deterministic: fixed canvas,
fixed formatting, no timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .cache import write_atomic

WIDTH = 900
HEIGHT = 560
MARGIN_L = 80
MARGIN_R = 30
MARGIN_T = 50
MARGIN_B = 70

POINT_COLOR = "#1f77b4"
POINT2_COLOR = "#d62728"
LINE_COLOR = "#2ca02c"
MARKER_COLOR = "#999999"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _nice_ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    e = math.floor(math.log10(lo))
    while 10.0**e <= hi * 1.0000001:
        if 10.0**e >= lo * 0.9999999:
            ticks.append(10.0**e)
        e += 1
    return ticks or [lo, hi]


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


@dataclass
class Chart:
    title: str
    xlabel: str
    ylabel: str
    xlog: bool = False
    ylog: bool = False
    series: list[tuple[str, Sequence[float], Sequence[float]]] = field(
        default_factory=list
    )
    line: tuple[Sequence[float], Sequence[float]] | None = None
    vmarkers: Sequence[float] = ()

    def add_series(self, label: str, xs: Sequence[float], ys: Sequence[float]) -> None:
        self.series.append((label, xs, ys))

    def render(self, path: Path) -> None:
        xs_all: list[float] = []
        ys_all: list[float] = []
        for _, xs, ys in self.series:
            for x, y in zip(xs, ys):
                if self.xlog and x <= 0:
                    continue
                if self.ylog and y <= 0:
                    continue
                xs_all.append(x)
                ys_all.append(y)
        if not xs_all:
            raise ValueError(f"chart '{self.title}' has no plottable points")

        x_lo, x_hi = min(xs_all), max(xs_all)
        y_lo, y_hi = min(ys_all), max(ys_all)
        if self.line is not None:
            y_lo = min(y_lo, *self.line[1])
            y_hi = max(y_hi, *self.line[1])
        if not self.xlog:
            pad = 0.02 * (x_hi - x_lo or 1.0)
            x_lo, x_hi = x_lo - pad, x_hi + pad
        if not self.ylog:
            pad = 0.06 * (y_hi - y_lo or 1.0)
            y_lo, y_hi = y_lo - pad, y_hi + pad
        else:
            y_lo, y_hi = y_lo / 1.5, y_hi * 1.5
        if self.xlog:
            x_lo, x_hi = x_lo / 1.1, x_hi * 1.1

        plot_w = WIDTH - MARGIN_L - MARGIN_R
        plot_h = HEIGHT - MARGIN_T - MARGIN_B

        def px(x: float) -> float:
            if self.xlog:
                f = (math.log10(x) - math.log10(x_lo)) / (
                    math.log10(x_hi) - math.log10(x_lo)
                )
            else:
                f = (x - x_lo) / (x_hi - x_lo)
            return MARGIN_L + f * plot_w

        def py(y: float) -> float:
            if self.ylog:
                f = (math.log10(y) - math.log10(y_lo)) / (
                    math.log10(y_hi) - math.log10(y_lo)
                )
            else:
                f = (y - y_lo) / (y_hi - y_lo)
            return HEIGHT - MARGIN_B - f * plot_h

        out: list[str] = []
        out.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
        )
        out.append('<rect width="100%" height="100%" fill="#ffffff"/>')
        out.append(
            f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" '
            f'font-size="18" font-family="sans-serif">{_escape(self.title)}</text>'
        )

        x_ticks = _log_ticks(x_lo, x_hi) if self.xlog else _nice_ticks(x_lo, x_hi)
        y_ticks = _log_ticks(y_lo, y_hi) if self.ylog else _nice_ticks(y_lo, y_hi)
        for v in y_ticks:
            y = py(v)
            out.append(
                f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{WIDTH - MARGIN_R}" '
                f'y2="{y:.2f}" stroke="#e0e0e0" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
                f'font-size="12" font-family="sans-serif">{_fmt_tick(v)}</text>'
            )
        for v in x_ticks:
            x = px(v)
            out.append(
                f'<line x1="{x:.2f}" y1="{MARGIN_T}" x2="{x:.2f}" '
                f'y2="{HEIGHT - MARGIN_B}" stroke="#e0e0e0" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_B + 20}" '
                f'text-anchor="middle" font-size="12" '
                f'font-family="sans-serif">{_fmt_tick(v)}</text>'
            )

        for v in self.vmarkers:
            if not (x_lo <= v <= x_hi) or (self.xlog and v <= 0):
                continue
            x = px(v)
            out.append(
                f'<line x1="{x:.2f}" y1="{MARGIN_T}" x2="{x:.2f}" '
                f'y2="{HEIGHT - MARGIN_B}" stroke="{MARKER_COLOR}" '
                f'stroke-width="1" stroke-dasharray="5,4"/>'
            )

        out.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
            f'height="{plot_h}" fill="none" stroke="#000000" stroke-width="1"/>'
        )

        if self.line is not None:
            pts = " ".join(
                f"{px(x):.2f},{py(y):.2f}"
                for x, y in zip(*self.line)
                if (not self.xlog or x > 0) and (not self.ylog or y > 0)
            )
            out.append(
                f'<polyline fill="none" stroke="{LINE_COLOR}" '
                f'stroke-width="2" points="{pts}"/>'
            )

        colors = [POINT_COLOR, POINT2_COLOR]
        for idx, (label, xs, ys) in enumerate(self.series):
            color = colors[idx % len(colors)]
            for x, y in zip(xs, ys):
                if (self.xlog and x <= 0) or (self.ylog and y <= 0):
                    continue
                out.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.2" '
                    f'fill="{color}" fill-opacity="0.75"/>'
                )
            if label:
                ly = MARGIN_T + 16 + idx * 18
                out.append(
                    f'<circle cx="{WIDTH - MARGIN_R - 150}" cy="{ly - 4}" r="3" '
                    f'fill="{color}"/>'
                )
                out.append(
                    f'<text x="{WIDTH - MARGIN_R - 140}" y="{ly}" '
                    f'font-size="12" font-family="sans-serif">{_escape(label)}</text>'
                )

        out.append(
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" '
            f'y="{HEIGHT - 18}" text-anchor="middle" font-size="14" '
            f'font-family="sans-serif">{_escape(self.xlabel)}</text>'
        )
        mid_y = (MARGIN_T + HEIGHT - MARGIN_B) / 2
        out.append(
            f'<text x="22" y="{mid_y:.1f}" text-anchor="middle" font-size="14" '
            f'font-family="sans-serif" transform="rotate(-90 22 {mid_y:.1f})">'
            f"{_escape(self.ylabel)}</text>"
        )
        out.append("</svg>")
        write_atomic(path, ("\n".join(out) + "\n").encode("utf-8"))
