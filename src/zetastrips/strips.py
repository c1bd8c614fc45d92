"""Strip assembly: per-strip zero enumeration and the zero/Gram identity.

A strip is the band between consecutive special Gram points, bottom
inclusive and top exclusive.  With that ownership rule the number of
critical zeros in a strip equals the number of Gram points it contains,
exactly and per strip; any violation raises CountMismatch rather than
being repaired.

This module traces nothing.  ``find_zeros`` scans one interval of the
critical line.  A ``Strip`` checks its zero count and primary zero when
it is built, afresh by the census or read back from the cache, so an
invalid strip never exists.

The scan calls the Euler-Maclaurin ``hardy_z`` only where its value
decides a bit of an emitted zero.  Grid signs come from the
Riemann-Siegel formula wherever its error bound settles them, and each
zero is located by Illinois and then written as the float that a fixed
bisection of its grid cell returns, with only the bisection midpoints
next to the zero evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import lt
from typing import Callable

from .errors import CountMismatch, DomainError, EscapedStrip
from .gram import gap_model
from .zeta import RS_T_MIN, T_ABS_MAX, THETA_T_MIN, hardy_z, riemann_siegel_z

# zeros are the floats of a fixed bisection to 1e-9; Illinois locates the
# sign change to 1e-10 first, and only bisection midpoints within the guard
# of it are evaluated.  The guard is over 20 times the evaluator's noise
# zone: hardy_z is within about 2e-11 of mpmath.siegelz, and |Z'| >= 0.40
# at every zero below 1e4 (smallest 0.402, at t = 4292.73).
_BISECT_TOL = 1e-9
_LOCATE_TOL = 1e-10
_REPLAY_GUARD = 1e-9
_MAX_REFINE = 4


@dataclass(frozen=True)
class ZeroRecord:
    t: float
    strip_m: int


@dataclass(frozen=True)
class Strip:
    m: int
    bottom: float
    top: float
    gram_count: int
    zeros: tuple[float, ...]
    primary_index: int
    primary_height: float

    @property
    def width(self) -> float:
        return self.top - self.bottom

    @property
    def primary_stat(self) -> float:
        """Relative position (primary_index - 1/2) / n_zeros of the primary
        zero among the strip's zeros, in (0, 1)."""
        return (self.primary_index - 0.5) / len(self.zeros)

    def __post_init__(self) -> None:
        """Every strip, fresh or cached, is checked as it is built: a positive zero
        count equal to the Gram count (CountMismatch), then bottom <= z_1 < ... < z_N < top
        and the primary zero inside the strip within 1e-5 of its zero (EscapedStrip)."""
        if len(self.zeros) != self.gram_count:
            raise CountMismatch(
                f"strip {self.m}: {len(self.zeros)} zeros vs "
                f"{self.gram_count} Gram points"
            )
        if not self.zeros:
            raise CountMismatch(f"strip {self.m} is empty; no such strip is expected")
        zs = self.zeros
        if not (self.bottom <= zs[0] and zs[-1] < self.top and all(map(lt, zs, zs[1:]))):
            raise EscapedStrip(f"strip {self.m}: zeros not ascending in [bottom, top)")
        if not 1 <= self.primary_index <= len(self.zeros):
            raise EscapedStrip(f"strip {self.m}: primary index out of range")
        miss = abs(self.zeros[self.primary_index - 1] - self.primary_height)
        if miss > 1e-5:
            raise EscapedStrip(
                f"strip {self.m}: primary zero at {self.primary_height} is "
                f"{miss:.2e} away from zero {self.primary_index} of the strip"
            )
        if not self.bottom < self.primary_height < self.top:
            raise EscapedStrip(
                f"strip {self.m}: primary zero {self.primary_height} outside strip"
            )


def _bisect_zero(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float
) -> float:
    """The zero that bisecting f on [lo, hi] to 1e-9 returns, given values
    f_lo and f_hi of opposite signs that carry the signs of f(lo), f(hi).

    Illinois first locates the sign change of f inside [lo, hi] to a
    bracket [a, b] of width 1e-10.  The fixed bisection is then replayed:
    a midpoint within _REPLAY_GUARD of [a, b] is evaluated, and any other
    midpoint takes the sign of the end of [a, b] on its side.  Where the
    cell holds one zero and |f| at the guard distance is far above the
    evaluator's error, that is the sign f has there, so the result is the
    plain bisection's float at a fraction of its evaluations.
    """
    a, b, f_a, f_b = lo, hi, f_lo, f_hi
    side = 0
    while b - a > _LOCATE_TOL:
        # the secant point, kept half the tolerance inside the bracket so
        # that a converged end is straddled rather than crept up on
        c = b - f_b * (b - a) / (f_b - f_a)
        c = min(max(c, a + 0.5 * _LOCATE_TOL), b - 0.5 * _LOCATE_TOL)
        f_c = f(c)
        if f_c == 0.0:
            a = b = c
            break
        # Illinois: when one end moves twice running, halve the value kept
        # at the other, so that both ends close in
        if (f_c > 0.0) == (f_b > 0.0):
            b, f_b = c, f_c
            if side == -1:
                f_a *= 0.5
            side = -1
        else:
            a, f_a = c, f_c
            if side == 1:
                f_b *= 0.5
            side = 1
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid < a - _REPLAY_GUARD:
            lo = mid
        elif mid > b + _REPLAY_GUARD:
            hi = mid
        elif f_lo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _grid_z(t: float) -> float:
    """Z(t) for the scan grid: the Riemann-Siegel value where its bound
    fixes the sign, else the Euler-Maclaurin hardy_z."""
    if t >= RS_T_MIN:
        value, bound = riemann_siegel_z(t)
        if abs(value) > 2.0 * bound:
            return value
    return hardy_z(t)


def find_zeros(
    t_lo: float,
    t_hi: float,
    expected_count: int | None = None,
    *,
    strip_m: int = 0,
) -> list[ZeroRecord]:
    """Critical zeros in (t_lo, t_hi) by sign-change scan of Z, each the
    float that bisection of its grid cell to 1e-9 returns.

    The scan grid has spacing gap_model(t_hi)/8.  Its signs come from the
    Riemann-Siegel formula where |Z_RS| exceeds twice its bound (t >= 200),
    and from the Euler-Maclaurin hardy_z elsewhere, so every sign is the
    one hardy_z has.  Each sign change is polished by ``_bisect_zero`` on
    hardy_z.  When ``expected_count`` is given (strip builds pass the Gram
    count) and the scan disagrees, the grid is halved up to four times
    before CountMismatch is raised; a missed zero is never interpolated.
    """
    if not THETA_T_MIN <= t_lo < t_hi <= T_ABS_MAX:
        raise DomainError(f"find_zeros range [{t_lo}, {t_hi}] invalid")

    spacing = gap_model(t_hi) / 8.0
    for _ in range(_MAX_REFINE + 1):
        count = max(2, math.ceil((t_hi - t_lo) / spacing) + 1)
        zeros: list[float] = []
        prev_t = t_lo
        prev_z = _grid_z(prev_t)
        for i in range(1, count + 1):
            t = min(t_lo + i * (t_hi - t_lo) / count, t_hi)
            cur_z = _grid_z(t)
            if prev_z == 0.0:
                zeros.append(prev_t)
            elif prev_z * cur_z < 0.0:
                zeros.append(_bisect_zero(hardy_z, prev_t, t, prev_z, cur_z))
            prev_t, prev_z = t, cur_z
        if expected_count is None or len(zeros) == expected_count:
            return [ZeroRecord(t=height, strip_m=strip_m) for height in zeros]
        spacing *= 0.5
    raise CountMismatch(
        f"({t_lo}, {t_hi}): found {len(zeros)} zeros, expected {expected_count} "
        f"after {_MAX_REFINE} grid refinements"
    )
