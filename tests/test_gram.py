"""Gram table contracts: residuals, the spacing model, the convergence
series, and the counting identity."""

from __future__ import annotations

import math
import random
import sys

import mpmath
import numpy as np
import pytest

from conftest import TWO_PI, bisect_root
from zetastrips.errors import DomainError
from zetastrips.gram import (
    GramTable,
    gap_model,
    gap_ratio_series,
    gram_point,
)
from zetastrips.zeta import T_ABS_MAX, THETA_T_MIN, rs_theta, rs_theta_deriv

# frozen from the bisection oracle on rs_theta during development
G_MINUS_1 = 9.666908077468545
G_0 = 17.84559954081863
G_1 = 23.170282701334937
G_2 = 27.670182217848122


def test_first_gram_point_matches_paper_height():
    g = gram_point(-1)
    assert abs(g - 9.6669080561) < 1e-6
    oracle = bisect_root(lambda t: rs_theta(t) + math.pi, 7.05, TWO_PI * math.e)
    assert abs(g - oracle) < 1e-9
    assert abs(g - G_MINUS_1) < 1e-9


def test_gram_zero_and_one():
    assert abs(gram_point(0) - G_0) < 1e-9
    assert abs(gram_point(0) - 17.8455995) < 1e-5
    g1 = gram_point(1)
    assert abs(g1 - G_1) < 1e-9
    assert abs(rs_theta(g1) - math.pi) < 1e-9


def test_residuals_across_the_range():
    for n in (2, 7, 100, 2500, 10141):
        g = gram_point(n)
        assert abs(rs_theta(g) - n * math.pi) < 1e-9


def test_heights_strictly_increasing():
    heights = [gram_point(n) for n in range(-1, 300)]
    assert all(b > a for a, b in zip(heights, heights[1:]))


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        gram_point(-2)


def test_table_ends_at_the_first_point_above_the_window():
    # g_11324 is the first Gram point above t = 1.1e4; nothing past it is built
    table = GramTable()
    assert table.point(11323) <= T_ABS_MAX < table.point(11324) == gram_point(11324)
    for beyond in (
        lambda: gram_point(11325),
        lambda: gram_point(10**9),
        lambda: table.extend_to_height(math.inf),
        lambda: table.count_in(0.0, 2e4),
    ):
        with pytest.raises(DomainError):
            beyond()
    assert table.extend_to_height(T_ABS_MAX) == 11323


def test_gap_model_values():
    assert abs(gap_model(TWO_PI * math.e) - TWO_PI) < 1e-12
    assert abs(gap_model(4.0 * math.pi) - 9.06472028) < 1e-7
    assert abs(gap_model(4.0 * math.pi) - TWO_PI / math.log(2.0)) < 1e-12
    assert abs(gap_model(1.0e4) - TWO_PI / math.log(1.0e4 / TWO_PI)) < 1e-12
    assert abs(gap_model(1.0e4) - 0.8522) < 1e-3
    with pytest.raises(DomainError):
        gap_model(TWO_PI)


def test_gap_ratio_series_frozen_head():
    series = gap_ratio_series(12)
    assert [n for n, *_ in series] == list(range(0, 13))
    # n = 0 values, frozen from the oracle table: the plain variant is 0.439,
    # only the geometric-mean variant lands below 0.1
    _, _, _, plain_0, geometric_0 = series[0]
    assert abs(plain_0 - 0.439196) < 1e-4
    assert abs(geometric_0 - 0.040199) < 1e-4
    assert 0.0 < geometric_0 < 0.1
    _, _, _, plain_10, _ = series[10]
    assert abs(plain_10 - 0.013056) < 1e-4


def test_geometric_variant_beats_plain():
    series = gap_ratio_series(60)
    for n, _, _, plain, geometric in series:
        if n >= 10:
            assert abs(geometric) < abs(plain)


def test_plain_ratio_small_for_n_at_least_10():
    series = gap_ratio_series(400)
    for n, _, gap, plain, _ in series:
        if n >= 10:
            assert abs(plain) < 0.05
        assert gap > 0.0


def test_loglog_slope_negative():
    series = gap_ratio_series(1200)
    xs = np.array([math.log(n) for n, *_ in series if n >= 1])
    ys = np.array([math.log(abs(plain)) for n, _, _, plain, _ in series if n >= 1])
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert slope < 0.0


def test_count_identity_to_height():
    table = GramTable()
    n_last = table.extend_to_height(1.0e4)
    # counting convention starts at n = -1
    count = n_last + 2
    assert count == math.floor(rs_theta(1.0e4) / math.pi) + 2
    direct = sum(1 for n in range(-1, n_last + 1) if table.point(n) <= 1.0e4)
    assert direct == count
    assert table.point(n_last) <= 1.0e4 < table.point(n_last + 1)


def test_count_in_half_open_interval():
    table = GramTable()
    g_lo = table.point(0)
    g_hi = table.point(5)
    # bottom inclusive, top exclusive
    assert table.count_in(g_lo, g_hi) == 5
    # endpoints within the snap tolerance keep the same membership
    assert table.count_in(g_lo + 1e-9, g_hi - 1e-9) == 5
    assert table.count_in(g_lo - 1e-3, g_hi + 1e-3) == 6


def test_index_near():
    table = GramTable()
    g = table.point(7)
    assert table.index_near(g) == 7
    assert table.index_near(g + 1e-7) == 7
    assert table.index_near(g + 0.3) is None
    # theta / pi rounds to -1 at THETA_T_MIN, far from g_-1
    assert table.index_near(THETA_T_MIN) is None


def test_series_requires_positive_n_max():
    with pytest.raises(DomainError):
        gap_ratio_series(0)


def _safeguarded_solve_theta(target, lo, hi, seed):
    """Frozen copy of the Gram solve before it became plain Newton: Newton
    inside a widened bracket with a bisection fallback and a step escape."""
    f_lo = rs_theta(lo) - target
    f_hi = rs_theta(hi) - target
    for _ in range(40):
        if f_lo * f_hi <= 0.0:
            break
        hi += 0.5 * gap_model(max(hi, TWO_PI + 1.0))
        f_hi = rs_theta(hi) - target
    else:
        raise AssertionError(f"no bracket for theta = {target}")
    x = min(max(seed, lo), hi)
    for _ in range(60):
        f = rs_theta(x) - target
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
    assert abs(residual) < 1e-9, f"theta solve for {target} stalled"
    return x


def test_plain_newton_matches_the_safeguarded_solve_bit_for_bit():
    heights = [_safeguarded_solve_theta(-math.pi, 7.05, TWO_PI * math.e, 9.7)]
    while heights[-1] <= T_ABS_MAX:
        idx = len(heights) - 1
        prev = heights[-1]
        gap = gap_model(prev)
        heights.append(
            _safeguarded_solve_theta(idx * math.pi, prev + 1e-9, prev + 2.5 * gap, prev + gap)
        )
    assert len(heights) == 11326  # g_-1 .. g_11324, the first point above 1.1e4
    table = GramTable()
    assert [table.point(n) for n in range(-1, len(heights) - 1)] == heights


def test_gram_points_against_mpmath_from_n_30():
    # below n = 30 the five-term rs_theta is more than 2 ulps of g off the
    # exact theta; from n = 30 to 11323 the worst distance to the correctly
    # rounded mpmath.grampoint is 3 ulps, reached at 19 n from 655 to 7438
    ns = sorted(set(random.Random(11).sample(range(30, 11324), 200)) | {655, 7438})
    mpmath.mp.dps = 30
    for n in ns:
        g = gram_point(n)
        assert abs(g - float(mpmath.grampoint(n))) <= 3.0 * math.ulp(g), n
