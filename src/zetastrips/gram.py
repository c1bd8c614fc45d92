"""Gram points, the smooth spacing model, and the convergence series.

Gram points are indexed from n = -1 (height 9.6669...), matching the strip
census: the first strip bottom is the n = -1 Gram point.  The table is
built sequentially; each new point is a plain Newton solve of
rs_theta(g) = n pi seeded at the previous point plus the model gap.
rs_theta is increasing and convex for t >= 7 (its second derivative is
1/(2t) + 1/(24 t^3) + 7/(480 t^5) > 0), so Newton needs no bracket: after
at most one step the iterates approach the root monotonically from above.
"""

from __future__ import annotations

import bisect
import math

from .errors import ConvergenceFailure, DomainError
from .zeta import T_ABS_MAX, THETA_T_MIN, rs_theta, rs_theta_deriv

_TWO_PI = 2.0 * math.pi
_MAX_NEWTON = 60
# a crossing is g_n when within this of it: under a millionth of the least
# Gram gap (0.84), over 20 times the worst crossing error of the 1e4 census
# (2.13e-8, at g_-1, from the five-term rs_theta; 3 ulps above t = 100)
_BOUNDARY_TOL = 5e-7


def gap_model(t: float) -> float:
    """Model spacing 2 pi / log(t / 2 pi) between neighboring Gram points."""
    if t <= _TWO_PI:
        raise DomainError(f"gap_model requires t > 2 pi, got {t}")
    return _TWO_PI / math.log(t / _TWO_PI)


def _solve_theta(target: float, seed: float) -> float:
    """Plain Newton on rs_theta(t) = target from seed; see the module doc."""
    x = seed
    for _ in range(_MAX_NEWTON):
        f = rs_theta(x) - target
        # 5e-10 keeps the 1e-9 residual contract; one polish step lands the
        # root at float granularity.
        if abs(f) < 5e-10:
            return x - f / rs_theta_deriv(x)
        x -= f / rs_theta_deriv(x)
    raise ConvergenceFailure(f"theta solve for target {target} did not converge")


class GramTable:
    """Sequentially built, memoized table of Gram points g_n, n >= -1.

    Not locked: nothing in the package starts a thread, and each pool
    worker is a process with its own table.
    """

    def __init__(self) -> None:
        self._heights: list[float] = []

    def _extend_to(self, n: int) -> None:
        if not self._heights:
            self._heights.append(_solve_theta(-math.pi, 9.7))
        while len(self._heights) - 2 < n:
            idx = len(self._heights) - 1  # index of the next point
            prev = self._heights[-1]
            if prev > T_ABS_MAX:  # the table ends at the first point above the window
                raise DomainError(
                    f"g_{n} lies beyond g_{idx - 1}, the first Gram point above {T_ABS_MAX}"
                )
            g = _solve_theta(idx * math.pi, prev + gap_model(prev))
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
        g_n <= t.  DomainError for t above the evaluation window."""
        if not t <= T_ABS_MAX:
            raise DomainError(f"height {t} above the evaluation window t <= {T_ABS_MAX}")
        while not self._heights or self._heights[-1] <= t:
            self._extend_to(len(self._heights) - 1)
        return bisect.bisect_right(self._heights, t) - 2

    def count_in(self, lo: float, hi: float) -> int:
        """Number of Gram points g with lo <= g < hi (bottom inclusive).

        Both ends move down by _BOUNDARY_TOL first, so an end up to that
        far above a Gram point counts as that point.  The census does not
        call this: it counts a strip by the Gram indices of its edges."""
        self.extend_to_height(hi)
        return bisect.bisect_left(self._heights, hi - _BOUNDARY_TOL) - bisect.bisect_left(
            self._heights, lo - _BOUNDARY_TOL
        )

    def index_near(self, t: float) -> int | None:
        """Gram index whose height is within _BOUNDARY_TOL of t, or None."""
        if t < THETA_T_MIN:
            return None
        n = round(rs_theta(t) / math.pi)
        g = self.point(n)
        return n if abs(g - t) <= _BOUNDARY_TOL else None


_DEFAULT_TABLE = GramTable()


def gram_point(n: int) -> float:
    """Height of g_n, -1 <= n <= 11324, from the shared table; rs_theta(g_n) =
    n pi to 1e-9.  g_11324 is the first Gram point above the window."""
    return _DEFAULT_TABLE.point(n)


def default_table() -> GramTable:
    return _DEFAULT_TABLE


def gap_ratio_series(n_max: int) -> list[tuple[int, float, float, float, float]]:
    """Rows (n, g_n, gap, plain, geometric) of the convergence series
    1 - (g_n - g_{n-1}) / F(.), n in [0, n_max], with the plain F(g_{n-1})
    and geometric-mean F(sqrt(g_n g_{n-1})) variants."""
    if n_max < 1:
        raise DomainError(f"gap_ratio_series requires n_max >= 1, got {n_max}")
    rows = []
    prev = _DEFAULT_TABLE.point(-1)
    for n in range(0, n_max + 1):
        g = _DEFAULT_TABLE.point(n)
        gap = g - prev
        plain = 1.0 - gap / gap_model(prev)
        geo = 1.0 - gap / gap_model(math.sqrt(g * prev))
        rows.append((n, g, gap, plain, geo))
        prev = g
    return rows
