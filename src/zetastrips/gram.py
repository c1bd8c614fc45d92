"""Gram points, the smooth spacing model, and the convergence series.

Gram points are indexed from n = -1 (height 9.6669...), matching the strip
census: the first strip bottom is the n = -1 Gram point.  The table is
built sequentially; each new point is a safeguarded Newton solve of
rs_theta(g) = n pi seeded at the previous point plus the model gap.
"""

from __future__ import annotations

import bisect
import math
import sys
import threading
from dataclasses import dataclass

from .errors import ConvergenceFailure, DomainError
from .zeta import rs_theta, rs_theta_deriv

_TWO_PI = 2.0 * math.pi
_MAX_NEWTON = 60
_BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
class GapRatioRecord:
    """One row of the convergence series: 1 - gap/model, both variants."""

    n: int
    height: float
    gap: float
    ratio_plain: float
    ratio_geometric: float


def gap_model(t: float) -> float:
    """Model spacing 2 pi / log(t / 2 pi) between neighboring Gram points."""
    if t <= _TWO_PI:
        raise DomainError(f"gap_model requires t > 2 pi, got {t}")
    return _TWO_PI / math.log(t / _TWO_PI)


def _solve_theta(target: float, lo: float, hi: float, seed: float) -> float:
    """Newton on rs_theta(t) = target with a bisection safeguard inside
    the bracket [lo, hi]; rs_theta is monotone there."""
    f_lo = rs_theta(lo) - target
    f_hi = rs_theta(hi) - target
    for _ in range(40):
        if f_lo * f_hi <= 0.0:
            break
        hi += 0.5 * gap_model(max(hi, _TWO_PI + 1.0))
        f_hi = rs_theta(hi) - target
    else:
        raise ConvergenceFailure(f"no bracket for theta = {target}")

    x = min(max(seed, lo), hi)
    for _ in range(_MAX_NEWTON):
        f = rs_theta(x) - target
        # 5e-10 keeps the 1e-9 residual contract; one polish step lands the
        # root at float granularity.  The step escape below covers ulp
        # oscillation near the root at large heights.
        if abs(f) < 5e-10:
            return x - f / rs_theta_deriv(x)
        if f > 0.0:
            hi = x
        else:
            lo = x
        step = f / rs_theta_deriv(x)
        x_new = x - step
        if abs(step) < 4.0 * sys.float_info.epsilon * max(1.0, abs(x)):
            break
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    residual = rs_theta(x) - target
    if abs(residual) < 1e-9:
        return x
    raise ConvergenceFailure(
        f"theta solve for target {target} stalled with residual {residual:.2e}"
    )


class GramTable:
    """Sequentially built, memoized table of Gram points g_n, n >= -1.

    Appends happen under a lock; the stored prefix is immutable afterwards,
    so concurrent reads are safe.
    """

    def __init__(self) -> None:
        self._heights: list[float] = []
        self._lock = threading.Lock()

    def _extend_to(self, n: int) -> None:
        with self._lock:
            if not self._heights:
                # theta(7.05) < -pi < theta(2 pi e): a guaranteed bracket
                self._heights.append(
                    _solve_theta(-math.pi, 7.05, _TWO_PI * math.e, 9.7)
                )
            while len(self._heights) - 2 < n:
                idx = len(self._heights) - 1  # index of the next point
                prev = self._heights[-1]
                gap = gap_model(prev)
                seed = prev + gap
                g = _solve_theta(idx * math.pi, prev + 1e-9, prev + 2.5 * gap, seed)
                if g <= prev:
                    raise ConvergenceFailure(f"non-increasing Gram point at n = {idx}")
                self._heights.append(g)

    def point(self, n: int) -> float:
        """Height of the Gram point g_n."""
        if n < -1:
            raise DomainError(f"Gram index {n} < -1")
        self._extend_to(n)
        return self._heights[n + 1]

    def extend_to_height(self, t: float) -> int:
        """Grow the table until g_n > t; returns the largest n with
        g_n <= t."""
        n = max(len(self._heights) - 2, -1)
        while True:
            if self._heights and self._heights[-1] > t:
                break
            n = len(self._heights) - 1
            self._extend_to(n)
        heights = self._heights
        n = len(heights) - 2
        while n >= -1 and heights[n + 1] > t:
            n -= 1
        return n

    def count_in(self, lo: float, hi: float) -> int:
        """Number of Gram points g with lo <= g < hi (bottom inclusive).

        Endpoints that are themselves Gram points are located only to the
        boundary coincidence tolerance, so membership is decided with a
        snap of _BOUNDARY_TOL (far below the minimum Gram spacing)."""
        self.extend_to_height(hi)
        return bisect.bisect_left(self._heights, hi - _BOUNDARY_TOL) - bisect.bisect_left(
            self._heights, lo - _BOUNDARY_TOL
        )

    def index_near(self, t: float, tol: float = 1e-6) -> int | None:
        """Gram index whose height is within tol of t, or None."""
        if t < 7.0:
            return None
        n = round(rs_theta(t) / math.pi)
        if n < -1:
            return None
        g = self.point(n)
        return n if abs(g - t) <= tol else None


_DEFAULT_TABLE = GramTable()


def gram_point(n: int) -> float:
    """Height of g_n from the shared table; rs_theta(g_n) = n pi to 1e-9."""
    return _DEFAULT_TABLE.point(n)


def default_table() -> GramTable:
    return _DEFAULT_TABLE


def gap_ratio_series(n_max: int) -> list[GapRatioRecord]:
    """Convergence series 1 - (g_n - g_{n-1}) / F(.) for n in [0, n_max],
    with both the plain F(g_{n-1}) and geometric-mean F(sqrt(g_n g_{n-1}))
    variants."""
    if n_max < 1:
        raise DomainError(f"gap_ratio_series requires n_max >= 1, got {n_max}")
    _DEFAULT_TABLE.point(n_max)
    records = []
    prev = _DEFAULT_TABLE.point(-1)
    for n in range(0, n_max + 1):
        g = _DEFAULT_TABLE.point(n)
        gap = g - prev
        plain = 1.0 - gap / gap_model(prev)
        geo = 1.0 - gap / gap_model(math.sqrt(g * prev))
        records.append(
            GapRatioRecord(n=n, height=g, gap=gap, ratio_plain=plain, ratio_geometric=geo)
        )
        prev = g
    return records
