"""Gram table contracts: residuals, the spacing model, the convergence
series, and the counting identity."""

from __future__ import annotations

import math

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
from zetastrips.zeta import rs_theta

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
    assert [r.n for r in series] == list(range(0, 13))
    # n = 0 values, frozen from the oracle table: the plain variant is 0.439,
    # only the geometric-mean variant lands below 0.1
    assert abs(series[0].ratio_plain - 0.439196) < 1e-4
    assert abs(series[0].ratio_geometric - 0.040199) < 1e-4
    assert 0.0 < series[0].ratio_geometric < 0.1
    assert abs(series[10].ratio_plain - 0.013056) < 1e-4


def test_geometric_variant_beats_plain():
    series = gap_ratio_series(60)
    for rec in series:
        if rec.n >= 10:
            assert abs(rec.ratio_geometric) < abs(rec.ratio_plain)


def test_plain_ratio_small_for_n_at_least_10():
    series = gap_ratio_series(400)
    for rec in series:
        if rec.n >= 10:
            assert abs(rec.ratio_plain) < 0.05
        assert rec.gap > 0.0


def test_loglog_slope_negative():
    series = gap_ratio_series(1200)
    xs = np.array([math.log(r.n) for r in series if r.n >= 1])
    ys = np.array([math.log(abs(r.ratio_plain)) for r in series if r.n >= 1])
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


def test_series_requires_positive_n_max():
    with pytest.raises(DomainError):
        gap_ratio_series(0)
