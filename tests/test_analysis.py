"""Regression, deviation, and arch-prediction contracts, mostly on
synthetic strips with known structure."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import LN2, TWO_PI
from zetastrips.analysis import (
    ArchPrediction,
    SLOPE_MODEL,
    arch_centers,
    bottom_deviation_series,
    branch_spacing_report,
    fit_bottoms,
    fit_density,
    fit_density_linear,
    fit_tops,
    primary_stats,
)
from zetastrips.errors import DomainError
from zetastrips.gram import gap_model
from zetastrips.strips import Strip


def _synthetic_strip(m: int, bottom: float, top: float, n_zeros: int, primary: int) -> Strip:
    zeros = tuple(bottom + (i + 0.5) * (top - bottom) / n_zeros for i in range(n_zeros))
    return Strip(
        m=m,
        bottom=bottom,
        top=top,
        gram_count=n_zeros,
        zeros=zeros,
        primary_index=primary,
        primary_height=zeros[primary - 1],
    )


def _exact_line_strips(count: int) -> list[Strip]:
    # bottoms exactly on y = SLOPE_MODEL * m, single zero each
    out = []
    for m in range(1, count + 1):
        bottom = SLOPE_MODEL * m
        out.append(_synthetic_strip(m, bottom, bottom + SLOPE_MODEL, 1, 1))
    return out


def test_fit_recovers_exact_line():
    fit = fit_bottoms(_exact_line_strips(200))
    assert abs(fit.slope - SLOPE_MODEL) < 1e-9
    assert abs(fit.intercept) < 1e-7
    assert fit.slope_se < 1e-9
    assert fit.intercept_se < 1e-7
    assert fit.n == 200


def test_fit_tops_shifts_intercept_by_one_width():
    strips = _exact_line_strips(200)
    bottoms = fit_bottoms(strips)
    tops = fit_tops(strips)
    assert abs(tops.slope - bottoms.slope) < 1e-9
    assert abs(tops.intercept - (bottoms.intercept + SLOPE_MODEL)) < 1e-7


def test_fit_needs_three_points():
    with pytest.raises(DomainError):
        fit_bottoms(_exact_line_strips(2))


def test_bottom_deviation_series_values():
    strips = [_synthetic_strip(1, 9.6669080561, 17.8456, 1, 1)]
    [(m, dev)] = bottom_deviation_series(strips)
    assert m == 1
    # 9.6669080561 - 9.06472028... frozen arithmetic
    assert abs(dev - 0.6022) < 1e-4


def test_arch_centers_closed_form():
    preds = arch_centers(10, 1)
    by_p = {a.p: a for a in preds}
    assert abs(by_p[4].m_center - 16.0 * LN2) < 1e-12
    assert abs(by_p[4].m_center - 11.0904) < 1e-4
    assert abs(by_p[4].t_center - 32.0 * math.pi) < 1e-12
    assert abs(by_p[10].m_center - 1024.0 * LN2) < 1e-12
    assert abs(by_p[10].m_center - 709.78) < 5e-3
    # sorted by center, coprime only, all ratios exact
    centers = [a.m_center for a in preds]
    assert centers == sorted(centers)
    for a in preds:
        assert math.gcd(a.p, a.q) == 1
        assert abs(a.t_center / a.m_center - TWO_PI / LN2) < 1e-9
        # resonance: at a q = 1 center the mean strip height is p Gram gaps
        assert abs(SLOPE_MODEL / gap_model(a.t_center) - a.p) < 1e-9


def test_arch_centers_q2_excludes_reducible():
    preds = arch_centers(8, 2)
    assert all(not (a.q == 2 and a.p % 2 == 0) for a in preds)
    assert any(a.q == 2 for a in preds)


def test_arch_centers_m_limit():
    preds = arch_centers(20, 1, m_limit=100.0)
    assert all(1.0 <= a.m_center <= 100.0 for a in preds)
    assert max(a.p for a in preds) == 7  # 2^7 ln2 = 88.7 <= 100 < 2^8 ln2


def test_arch_prediction_validates_ratio():
    # (p, q) must be coprime positives; the centres derive from them
    with pytest.raises(DomainError):
        ArchPrediction(4, 2)
    with pytest.raises(DomainError):
        ArchPrediction(0, 1)


def test_density_fit_recovers_model_exactly():
    # strips built exactly from the spacing model: density = ln(C m)/2pi,
    # which is exactly linear in ln m, so residuals vanish
    strips = []
    for m in range(1, 301):
        # exactly (ln m + const) / 2pi, the model evaluated at 2 m pi / ln 2
        density = math.log(SLOPE_MODEL * m / TWO_PI) / TWO_PI
        n_zeros = 3
        bottom = SLOPE_MODEL * m
        # scale width so zeros/width equals the model density exactly
        w = n_zeros / density
        zeros = tuple(bottom + (i + 0.5) * w / n_zeros for i in range(n_zeros))
        strips.append(
            Strip(
                m=m,
                bottom=bottom,
                top=bottom + w,
                gram_count=n_zeros,
                zeros=zeros,
                primary_index=2,
                primary_height=zeros[1],
            )
        )
    fit, dev = fit_density(strips)
    # model: density = (ln m + ln(SLOPE*1.5/2pi... const)) / 2pi, slope 1/2pi
    assert abs(fit.slope - 1.0 / TWO_PI) < 1e-4
    assert [m for m, _ in dev] == list(range(1, 301))
    assert max(abs(v) for _, v in dev) < 1e-9
    linear = fit_density_linear(strips)
    assert linear.n == fit.n


def test_primary_stats_degenerate_variance_zero():
    strips = _exact_line_strips(40)  # every strip has stat exactly 0.5
    stats = primary_stats(strips)
    assert stats.mean == 0.5
    assert stats.variance == 0.0
    assert stats.quartile_variances == (0.0, 0.0, 0.0, 0.0)
    assert stats.n == 40


def test_primary_stats_needs_two_strips_per_quartile():
    # seven strips leave one-strip quarters, whose ddof=1 variance is NaN
    with pytest.raises(DomainError):
        primary_stats(_exact_line_strips(7))
    assert primary_stats(_exact_line_strips(8)).quartile_variances == (0.0,) * 4


def test_primary_stats_known_spread():
    strips = []
    for m in range(1, 41):
        bottom = SLOPE_MODEL * m
        primary = 1 + (m % 4)
        strips.append(_synthetic_strip(m, bottom, bottom + SLOPE_MODEL, 4, primary))
    stats = primary_stats(strips)
    expected = np.array([(1 + (m % 4) - 0.5) / 4 for m in range(1, 41)])
    assert abs(stats.mean - expected.mean()) < 1e-12
    assert abs(stats.variance - expected.var(ddof=1)) < 1e-12


def test_branch_spacing_measures_offsets():
    # synthetic arch: deviations offset by +-0.3 per extra/missing zero
    strips = []
    for m in range(40, 121):
        surplus = (m % 3) - 1  # -1, 0, +1 cycling
        bottom = SLOPE_MODEL * m + 0.3 * surplus
        strips.append(_synthetic_strip(m, bottom, bottom + SLOPE_MODEL, 3 + surplus, 1))
    q, gap = branch_spacing_report(strips, p_max=6, q_max=1)[-1]
    assert q == 1
    assert gap is not None
    assert abs(gap - 0.3) < 1e-9
