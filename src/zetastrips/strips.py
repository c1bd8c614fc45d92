"""Strip assembly: per-strip zero enumeration and the zero/Gram identity.

A strip is the band between consecutive special Gram points, bottom
inclusive and top exclusive.  With that ownership rule the number of
critical zeros in a strip equals the number of Gram points it contains,
exactly and per strip; any violation raises CountMismatch rather than
being repaired.

This module traces nothing.  ``find_zeros`` scans one interval of the
critical line, and ``build_strips`` only assembles: it takes boundary
crossings and primary zeros already checked by ``contour`` and the zero
lists the scans returned, and checks each strip's zero count and
primary zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import CountMismatch, DomainError, EscapedStrip
from .gram import gap_model, default_table
from .zeta import T_ABS_MAX, hardy_z

_BISECT_TOL = 1e-9
_MAX_REFINE = 4


@dataclass(frozen=True)
class ZeroRecord:
    j: int
    t: float
    strip_m: int


@dataclass(frozen=True)
class Strip:
    m: int
    bottom: float
    top: float
    gram_count: int
    zeros: tuple[ZeroRecord, ...]
    primary_index: int
    primary_height: float

    @property
    def width(self) -> float:
        return self.top - self.bottom

    @property
    def primary_stat(self) -> float:
        """Relative position (primary_index - 1/2) / n_zeros of the primary
        zero among the strip's zeros, in (0, 1) once validated."""
        return (self.primary_index - 0.5) / len(self.zeros)

    def validate(self) -> None:
        if not self.bottom < self.top:
            raise DomainError(f"strip {self.m}: bottom >= top")
        if len(self.zeros) != self.gram_count:
            raise CountMismatch(
                f"strip {self.m}: {len(self.zeros)} zeros vs "
                f"{self.gram_count} Gram points"
            )
        if not 1 <= self.primary_index <= len(self.zeros):
            raise EscapedStrip(f"strip {self.m}: primary index out of range")


def _bisect_zero(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float
) -> float:
    """Bisect f on [lo, hi] given f_lo = f(lo): one evaluation per halving."""
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def find_zeros(
    t_lo: float,
    t_hi: float,
    expected_count: int | None = None,
    *,
    strip_m: int = 0,
) -> list[ZeroRecord]:
    """Critical zeros in (t_lo, t_hi) by sign-change scan of Z plus
    bisection to 1e-9.

    The scan grid has spacing gap_model(t_hi)/8.  When ``expected_count``
    is given (strip builds pass the Gram count) and the scan disagrees, the
    grid is halved up to four times before CountMismatch is raised; a
    missed zero is never interpolated.
    """
    if not 7.0 <= t_lo < t_hi <= T_ABS_MAX:
        raise DomainError(f"find_zeros range [{t_lo}, {t_hi}] invalid")

    spacing = gap_model(t_hi) / 8.0
    for _ in range(_MAX_REFINE + 1):
        count = max(2, math.ceil((t_hi - t_lo) / spacing) + 1)
        zeros: list[float] = []
        prev_t = t_lo
        prev_z = hardy_z(prev_t)
        for i in range(1, count + 1):
            t = min(t_lo + i * (t_hi - t_lo) / count, t_hi)
            cur_z = hardy_z(t)
            if prev_z == 0.0:
                zeros.append(prev_t)
            elif prev_z * cur_z < 0.0:
                zeros.append(_bisect_zero(hardy_z, prev_t, t, prev_z))
            prev_t, prev_z = t, cur_z
        if expected_count is None or len(zeros) == expected_count:
            return [
                ZeroRecord(j=i + 1, t=height, strip_m=strip_m)
                for i, height in enumerate(zeros)
            ]
        spacing *= 0.5
    raise CountMismatch(
        f"({t_lo}, {t_hi}): found {len(zeros)} zeros, expected {expected_count} "
        f"after {_MAX_REFINE} grid refinements"
    )


def build_strips(
    boundaries: Sequence[float],
    primaries: Sequence[float],
    zero_lists: Sequence[Sequence[float]],
) -> list[Strip]:
    """Assemble and validate strips 1..len(primaries).

    ``boundaries`` holds the len(primaries) + 1 crossing heights of the
    checked boundary contours, ``primaries`` the primary-zero height of
    each strip and ``zero_lists`` the zero heights its scan found.  Each
    strip's zero count must equal its Gram count (CountMismatch), and its
    primary zero must lie inside it and coincide with one of its zeros
    (EscapedStrip).
    """
    m_count = len(primaries)
    if m_count < 1:
        raise DomainError("no strips to build")
    if len(boundaries) != m_count + 1 or len(zero_lists) != m_count:
        raise DomainError(
            f"{m_count} strips need {m_count + 1} boundaries and {m_count} zero "
            f"lists, got {len(boundaries)} and {len(zero_lists)}"
        )
    table = default_table()
    strips: list[Strip] = []
    j_offset = 0
    for m in range(1, m_count + 1):
        bottom, top = boundaries[m - 1], boundaries[m]
        primary_height, heights = primaries[m - 1], zero_lists[m - 1]
        if bottom >= top:
            raise EscapedStrip(
                f"boundary crossings out of order at strip {m}: "
                f"{bottom} >= {top}; contours may have intersected"
            )
        gram_count = table.count_in(bottom, top)
        if len(heights) != gram_count:
            raise CountMismatch(
                f"strip {m}: {len(heights)} zeros vs {gram_count} Gram points"
            )
        if not heights:
            raise CountMismatch(f"strip {m} is empty; no such strip is expected")
        diffs = [abs(t - primary_height) for t in heights]
        primary_index = diffs.index(min(diffs)) + 1
        if min(diffs) > 1e-5:
            raise EscapedStrip(
                f"strip {m}: primary zero at {primary_height} matches no "
                f"enumerated zero (nearest {min(diffs):.2e} away)"
            )
        if not bottom < primary_height < top:
            raise EscapedStrip(f"strip {m}: primary zero {primary_height} outside strip")
        strip = Strip(
            m=m,
            bottom=bottom,
            top=top,
            gram_count=gram_count,
            zeros=tuple(
                ZeroRecord(j=j_offset + i + 1, t=t, strip_m=m)
                for i, t in enumerate(heights)
            ),
            primary_index=primary_index,
            primary_height=primary_height,
        )
        strip.validate()
        strips.append(strip)
        j_offset += gram_count
    return strips


def zeros_per_width(strip: Strip) -> float:
    """Zero count divided by strip width, the density statistic."""
    if strip.width <= 0.0:
        raise DomainError(f"strip {strip.m} has non-positive width")
    return len(strip.zeros) / strip.width
