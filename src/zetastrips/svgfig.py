"""Self-contained SVG scatter charts; no plotting framework.

One generic renderer covers all sixteen figures: linear or log axes, any
number of point series, labelled ones in a legend, an optional fitted line,
and optional vertical marker lines (arch centers).  Output is deterministic: fixed canvas,
fixed formatting, no timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
_TICK_INTERVALS = 6  # a linear axis's step is the nice number above (hi - lo) / 6


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Multiples of a nice step in [lo, hi], for lo < hi."""
    raw = (hi - lo) / _TICK_INTERVALS
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


def _escape(text: str) -> str:
    """Text content escaped for SVG, as html.escape(text, quote=False) does;
    the html package would import its 2231-entry entity table for this."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis(values: Sequence[float], log: bool, pad: float, factor: float):
    """(lo, hi, ticks, fraction) of an axis over values: their range widened
    by factor on a log axis, padded by pad of its length on a linear one;
    fraction(v) is v's share of [lo, hi], in log10 on a log axis."""
    lo, hi = min(values), max(values)
    if log:
        lo, hi = lo / factor, hi * factor
        log_lo = math.log10(lo)
        span = math.log10(hi) - log_lo
        return lo, hi, _log_ticks(lo, hi), lambda v: (math.log10(v) - log_lo) / span
    margin = pad * (hi - lo or 1.0)
    lo, hi = lo - margin, hi + margin
    span = hi - lo
    return lo, hi, _nice_ticks(lo, hi), lambda v: (v - lo) / span


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
    # (label, xs, ys) of each point series; a labelled one gets a legend entry
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]]
    xlog: bool = False
    ylog: bool = False
    line: tuple[Sequence[float], Sequence[float]] | None = None
    vmarkers: Sequence[float] = ()

    def _plottable(self, xs: Sequence[float], ys: Sequence[float]) -> list[tuple]:
        """The points (x, y) that the axes can show: positive on a log axis."""
        return [
            (x, y) for x, y in zip(xs, ys)
            if (not self.xlog or x > 0) and (not self.ylog or y > 0)
        ]

    def render(self, path: Path) -> None:
        points = [(label, self._plottable(xs, ys)) for label, xs, ys in self.series]
        xs_all = [x for _, pts in points for x, _ in pts]
        if not xs_all:
            raise ValueError(f"chart '{self.title}' has no plottable points")
        ys_all = [y for _, pts in points for _, y in pts]
        if self.line is not None:
            ys_all += self.line[1]
        x_lo, x_hi, x_ticks, fx = _axis(xs_all, self.xlog, pad=0.02, factor=1.1)
        _, _, y_ticks, fy = _axis(ys_all, self.ylog, pad=0.06, factor=1.5)

        plot_w = WIDTH - MARGIN_L - MARGIN_R
        plot_h = HEIGHT - MARGIN_T - MARGIN_B

        def px(x: float) -> float:
            return MARGIN_L + fx(x) * plot_w

        def py(y: float) -> float:
            return HEIGHT - MARGIN_B - fy(y) * plot_h

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            '<rect width="100%" height="100%" fill="#ffffff"/>',
        ]

        # the writers print x and y as given: an int, or text the caller formatted
        def text(x, y, size: int, body: str, anchor: str = "", transform: str = "") -> None:
            out.append(
                f'<text x="{x}" y="{y}"'
                + (f' text-anchor="{anchor}"' if anchor else "")
                + f' font-size="{size}" font-family="sans-serif"'
                + (f' transform="{transform}"' if transform else "")
                + f">{_escape(body)}</text>"
            )

        def line(x1, y1, x2, y2, stroke: str = "#e0e0e0", dash: str = "") -> None:
            out.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
                'stroke-width="1"' + (f' stroke-dasharray="{dash}"' if dash else "") + "/>"
            )

        text(f"{WIDTH / 2:.1f}", 28, 18, self.title, "middle")

        for v in y_ticks:
            y = py(v)
            line(MARGIN_L, f"{y:.2f}", WIDTH - MARGIN_R, f"{y:.2f}")
            text(MARGIN_L - 8, f"{y + 4:.2f}", 12, _fmt_tick(v), "end")
        for v in x_ticks:
            x = f"{px(v):.2f}"
            line(x, MARGIN_T, x, HEIGHT - MARGIN_B)
            text(x, HEIGHT - MARGIN_B + 20, 12, _fmt_tick(v), "middle")
        for v in self.vmarkers:
            if x_lo <= v <= x_hi and not (self.xlog and v <= 0):
                x = f"{px(v):.2f}"
                line(x, MARGIN_T, x, HEIGHT - MARGIN_B, MARKER_COLOR, "5,4")

        out.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
            f'height="{plot_h}" fill="none" stroke="#000000" stroke-width="1"/>'
        )

        if self.line is not None:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in self._plottable(*self.line))
            out.append(
                f'<polyline fill="none" stroke="{LINE_COLOR}" '
                f'stroke-width="2" points="{pts}"/>'
            )

        colors = [POINT_COLOR, POINT2_COLOR]
        for idx, (label, pts) in enumerate(points):
            color = colors[idx % len(colors)]
            out += [
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.2" '
                f'fill="{color}" fill-opacity="0.75"/>'
                for x, y in pts
            ]
            if label:
                ly = MARGIN_T + 16 + idx * 18
                out.append(
                    f'<circle cx="{WIDTH - MARGIN_R - 150}" cy="{ly - 4}" r="3" '
                    f'fill="{color}"/>'
                )
                text(WIDTH - MARGIN_R - 140, ly, 12, label)

        text(f"{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}", HEIGHT - 18, 14, self.xlabel, "middle")
        mid_y = f"{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}"
        text(22, mid_y, 14, self.ylabel, "middle", f"rotate(-90 22 {mid_y})")
        out.append("</svg>")
        write_atomic(path, ("\n".join(out) + "\n").encode("utf-8"))
