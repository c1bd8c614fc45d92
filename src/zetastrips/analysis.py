"""Regressions, deviation series, resonance/arch predictions, and the
primary-zero statistics over an assembled strip list.

Strip-bottom heights grow linearly in the strip number with slope
2 pi / ln 2 = 9.06472028...; deviations from 2 m pi / ln 2 stay inside
(-2, 2) and cluster into nested arches near strip numbers
alpha(p, q) = 2^(p/q) ln 2, the resonances between the mean strip height
and the local Gram spacing.  The density fit is taken against ln m, which
is exact for the spacing model; a fit against m is emitted alongside for
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .strips import Strip

_TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)
SLOPE_MODEL = _TWO_PI / _LN2  # 9.06472028...


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    slope_se: float
    intercept_se: float
    n: int


@dataclass(frozen=True)
class ArchPrediction:
    """Predicted arch center: strip number 2^(p/q) ln 2, height 2^(1+p/q) pi."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1 or math.gcd(self.p, self.q) != 1:
            raise DomainError(f"(p, q) = ({self.p}, {self.q}) must be coprime positives")

    @property
    def m_center(self) -> float:
        return 2.0 ** (self.p / self.q) * _LN2

    @property
    def t_center(self) -> float:
        return 2.0 ** (1.0 + self.p / self.q) * math.pi


def _ols(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares with homoskedastic standard errors."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = x.size
    if n < 3:
        raise DomainError(f"need >= 3 points for a fit, got {n}")
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(((x - x_mean) ** 2).sum())
    sxy = float(((x - x_mean) * (y - y_mean)).sum())
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    resid = y - (intercept + slope * x)
    s2 = float((resid**2).sum()) / (n - 2)
    return LinearFit(
        slope=slope,
        intercept=intercept,
        slope_se=math.sqrt(s2 / sxx),
        intercept_se=math.sqrt(s2 * (1.0 / n + x_mean**2 / sxx)),
        n=n,
    )


def fit_bottoms(strips: Sequence[Strip]) -> LinearFit:
    """OLS of strip-bottom height against strip number."""
    return _ols([s.m for s in strips], [s.bottom for s in strips])


def fit_tops(strips: Sequence[Strip]) -> LinearFit:
    """Same regression on the strip tops; slope is unchanged, the
    intercept shifts by one mean width."""
    return _ols([s.m for s in strips], [s.top for s in strips])


def bottom_deviation_series(strips: Sequence[Strip]) -> list[tuple[int, float]]:
    """(m, bottom(m) - 2 m pi / ln 2) for every strip."""
    if not strips:
        raise DomainError("no strips")
    return [(s.m, s.bottom - s.m * SLOPE_MODEL) for s in strips]


def arch_centers(
    p_max: int, q_max: int, m_limit: float | None = None
) -> list[ArchPrediction]:
    """All coprime (p, q) predictions with p <= p_max, q <= q_max and
    m_center >= 1 (and <= m_limit when given), sorted by center."""
    if p_max < 4:
        raise DomainError(f"p_max = {p_max} < 4")
    if q_max < 1:
        raise DomainError(f"q_max = {q_max} < 1")
    out = []
    for q in range(1, q_max + 1):
        for p in range(1, p_max + 1):
            if math.gcd(p, q) != 1:
                continue
            pred = ArchPrediction(p, q)
            if pred.m_center < 1.0 or (m_limit is not None and pred.m_center > m_limit):
                continue
            out.append(pred)
    out.sort(key=lambda a: a.m_center)
    return out


def census_arches(m_last: int) -> list[ArchPrediction]:
    """The arch centres of a census of strips 1..m_last: every one at or
    below m_last, q <= 3 from m_last = 100 on and q <= 2 below."""
    q_max = 3 if m_last >= 100 else 2
    # arch_centers takes p_max >= 4; only a census of one strip gives less (2)
    p_max = max(4, math.ceil(q_max * math.log2(m_last / _LN2)))
    return arch_centers(p_max, q_max, m_limit=float(m_last))


def fit_density(strips: Sequence[Strip]) -> tuple[LinearFit, list[tuple[int, float]]]:
    """OLS of zeros-per-width against ln m plus its (m, residual) series."""
    x = np.array([math.log(s.m) for s in strips], dtype=float)
    y = np.array([len(s.zeros) / s.width for s in strips], dtype=float)
    fit = _ols(x, y)
    resid = y - (fit.intercept + fit.slope * x)
    return fit, [(s.m, float(r)) for s, r in zip(strips, resid)]


def fit_density_linear(strips: Sequence[Strip]) -> LinearFit:
    """Comparison fit of zeros-per-width against m itself."""
    return _ols([s.m for s in strips], [len(s.zeros) / s.width for s in strips])


@dataclass(frozen=True)
class PrimaryStats:
    mean: float
    variance: float
    quartile_variances: tuple[float, float, float, float]
    n: int


def primary_stats(strips: Sequence[Strip]) -> PrimaryStats:
    """Mean and variance of the primary-zero statistic, overall and per
    index quartile (contiguous quarters of the strip list)."""
    if len(strips) < 8:
        raise DomainError(f"need >= 8 strips (two per quartile), got {len(strips)}")
    stats = np.array([s.primary_stat for s in strips], dtype=float)
    quarters = np.array_split(stats, 4)
    return PrimaryStats(
        mean=float(stats.mean()),
        variance=float(stats.var(ddof=1)),
        quartile_variances=tuple(float(q.var(ddof=1)) for q in quarters),
        n=stats.size,
    )


def arch_branch_spacing(strips: Sequence[Strip], prediction: ArchPrediction) -> float | None:
    """Mean vertical gap between adjacent branch means of the bottom-deviation
    series near one predicted arch center, the window's strips grouped by
    zero-count surplus over its modal count; None when the window holds
    fewer than 8 strips or no two adjacent branches.  Reported, never asserted."""
    m_c = prediction.m_center
    half = max(12.0, 0.12 * m_c)
    window = [s for s in strips if abs(s.m - m_c) <= half]
    if len(window) < 8:
        return None
    counts = [len(s.zeros) for s in window]
    modal = max(set(counts), key=counts.count)
    branches: dict[int, list[float]] = {}
    for s in window:
        label = len(s.zeros) - modal
        branches.setdefault(label, []).append(s.bottom - s.m * SLOPE_MODEL)
    means = sorted((label, float(np.mean(vals))) for label, vals in branches.items())
    gaps = [
        abs(means[i + 1][1] - means[i][1])
        for i in range(len(means) - 1)
        if means[i + 1][0] - means[i][0] == 1
    ]
    return float(np.mean(gaps)) if gaps else None


def branch_spacing_report(
    strips: Sequence[Strip], p_max: int = 10, q_max: int = 2
) -> list[tuple[int, float | None]]:
    """(q, mean branch gap) near every in-range arch center up to
    (p_max, q_max); the q = 2 gaps are expected near half the q = 1 gaps."""
    m_hi = strips[-1].m if strips else 0
    preds = arch_centers(p_max, q_max, m_limit=float(m_hi))
    return [(pred.q, arch_branch_spacing(strips, pred)) for pred in preds]
