"""Zero enumeration, strip assembly, and the zero/Gram identity."""

from __future__ import annotations

import math

import pytest

from conftest import FIRST_ZEROS
from zetastrips import strips as strips_mod
from zetastrips.contour import special_gram_point
from zetastrips.errors import CountMismatch, DomainError, EscapedStrip
from zetastrips.gram import gap_model
from zetastrips.pipeline import RunConfig, compute
from zetastrips.strips import (
    Strip,
    ZeroRecord,
    build_strips,
    find_zeros,
    zeros_per_width,
)
from zetastrips.zeta import hardy_z


def test_find_zeros_strip_one_interval():
    found = find_zeros(9.667, 17.845)
    assert len(found) == 1
    assert abs(found[0].t - FIRST_ZEROS[0]) < 1e-6
    assert found[0].j == 1


def test_find_zeros_empty_below_first_zero():
    assert find_zeros(7.0, 14.0) == []


def test_find_zeros_two_zero_interval():
    found = find_zeros(14.0, 22.0)
    assert [round(z.t, 6) for z in found] == [
        round(FIRST_ZEROS[0], 6),
        round(FIRST_ZEROS[1], 6),
    ]


def test_find_zeros_first_seven():
    found = find_zeros(10.0, 41.0, expected_count=7)
    assert len(found) == 7
    for got, known in zip(found, FIRST_ZEROS):
        assert abs(got.t - known) < 1e-7


def test_bisection_takes_one_evaluation_per_halving():
    calls = []

    def z(t):
        calls.append(t)
        return hardy_z(t)

    lo, hi = 14.0, 14.25  # brackets the first zero
    root = strips_mod._bisect_zero(z, lo, hi, hardy_z(lo))
    halvings = math.ceil(math.log2((hi - lo) / strips_mod._BISECT_TOL))
    assert len(calls) == halvings == 28
    assert lo not in calls
    assert abs(root - FIRST_ZEROS[0]) < 1e-9


def test_find_zeros_rejects_bad_range():
    with pytest.raises(DomainError):
        find_zeros(5.0, 20.0)
    with pytest.raises(DomainError):
        find_zeros(30.0, 20.0)


def test_find_zeros_refines_to_resolve_close_pair(monkeypatch):
    # synthetic Z with a pair split by 0.012: invisible on the initial grid
    # (spacing ~0.5 here), resolved after refinement
    pair = (100.0, 100.012)

    def fake_z(t: float) -> float:
        return (t - pair[0]) * (t - pair[1]) * (t - 90.0)

    monkeypatch.setattr(strips_mod, "hardy_z", fake_z)
    found = find_zeros(95.0, 105.0, expected_count=2)
    assert len(found) == 2
    assert abs(found[0].t - pair[0]) < 1e-8
    assert abs(found[1].t - pair[1]) < 1e-8


def test_find_zeros_count_mismatch_after_refinement(monkeypatch):
    def fake_z(t: float) -> float:
        return t - 100.0  # exactly one sign change, never three

    monkeypatch.setattr(strips_mod, "hardy_z", fake_z)
    with pytest.raises(CountMismatch):
        find_zeros(95.0, 105.0, expected_count=3)


def test_build_single_strip(tmp_path):
    built = compute(RunConfig(m_max=1, out_dir=tmp_path)).strips
    assert len(built) == 1
    s = built[0]
    assert abs(s.bottom - 9.6669080561) < 1e-6
    assert s.gram_count == 1
    assert len(s.zeros) == 1
    assert s.primary_index == 1
    assert s.primary_stat == 0.5
    assert abs(s.width - (s.top - s.bottom)) < 1e-12


def test_build_three_strips_identity_and_indices(tmp_path):
    built = compute(RunConfig(m_max=3, out_dir=tmp_path)).strips
    assert [s.m for s in built] == [1, 2, 3]
    j = 0
    for s in built:
        assert len(s.zeros) == s.gram_count
        for z in s.zeros:
            j += 1
            assert z.j == j
            assert s.bottom <= z.t < s.top
        assert s.bottom < s.primary_height < s.top
    # strip 2 holds the 2nd and 3rd zeros
    assert [round(z.t, 5) for z in built[1].zeros] == [
        round(FIRST_ZEROS[1], 5),
        round(FIRST_ZEROS[2], 5),
    ]


def test_zeros_per_width_tracks_gap_model(tmp_path):
    built = compute(RunConfig(m_max=12, out_dir=tmp_path)).strips
    for s in built[10:]:
        midpoint = 0.5 * (s.bottom + s.top)
        model = 1.0 / gap_model(midpoint)
        assert abs(zeros_per_width(s) - model) / zeros_per_width(s) < 0.05


def test_strip_validation_rejects_count_mismatch():
    zeros = (ZeroRecord(j=1, t=12.0, strip_m=1),)
    bad = Strip(
        m=1,
        bottom=10.0,
        top=19.0,
        gram_count=2,
        zeros=zeros,
        primary_index=1,
        primary_height=12.0,
    )
    with pytest.raises(CountMismatch):
        bad.validate()


def test_strip_validation_rejects_bad_primary_index():
    zeros = (ZeroRecord(j=1, t=12.0, strip_m=1),)
    bad = Strip(
        m=1,
        bottom=10.0,
        top=19.0,
        gram_count=1,
        zeros=zeros,
        primary_index=2,
        primary_height=12.0,
    )
    with pytest.raises(EscapedStrip):
        bad.validate()


def test_assemble_strip_rejects_foreign_primary():
    with pytest.raises(EscapedStrip):
        build_strips(
            boundaries=[10.0, 19.0],  # holds the Gram point g_0 = 17.8456
            primaries=[21.0],  # outside the strip
            zero_lists=[[14.134725]],
        )


def test_build_strips_requires_positive_m():
    with pytest.raises(DomainError):
        build_strips([special_gram_point(1)], [], [])
    with pytest.raises(DomainError):
        RunConfig(m_max=0)


def test_build_strips_checks_count_before_primary():
    # two Gram points (g_-1 = 9.667, g_0 = 17.846) but one scanned zero
    with pytest.raises(CountMismatch):
        build_strips([9.0, 19.0], [14.134725], [[14.134725]])


def test_build_strips_rejects_mismatched_lengths():
    with pytest.raises(DomainError):
        build_strips([10.0, 19.0, 25.0], [14.134725], [[14.134725]])
