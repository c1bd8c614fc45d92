"""Zero enumeration, strip assembly, and the zero/Gram identity."""

from __future__ import annotations

import csv
import math

import pytest

from conftest import FIRST_ZEROS
from zetastrips import strips as strips_mod
from zetastrips.cache import fmt
from zetastrips.contour import special_gram_point
from zetastrips.errors import CountMismatch, DomainError, EscapedStrip
from zetastrips.gram import default_table, gap_model
from zetastrips.pipeline import RunConfig, compute
from zetastrips.strips import Strip, find_zeros
from zetastrips.zeta import RS_T_MIN, hardy_z, riemann_siegel_z


def test_find_zeros_strip_one_interval():
    found = find_zeros(9.667, 17.845)
    assert len(found) == 1
    assert abs(found[0].t - FIRST_ZEROS[0]) < 1e-6


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


def _plain_bisection(f, lo: float, hi: float, f_lo: float) -> float:
    """Frozen reference: the zero scan's fixed bisection to 1e-9 as it stood
    before the Illinois locate and replay, one evaluation per halving."""
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _frozen_scan(t_lo: float, t_hi: float, expected_count: int) -> list[float]:
    """Frozen reference: the scan as it stood, hardy_z at every grid point
    and plain bisection of every sign change."""
    spacing = gap_model(t_hi) / 8.0
    for _ in range(5):
        count = max(2, math.ceil((t_hi - t_lo) / spacing) + 1)
        zeros: list[float] = []
        prev_t, prev_z = t_lo, hardy_z(t_lo)
        for i in range(1, count + 1):
            t = min(t_lo + i * (t_hi - t_lo) / count, t_hi)
            cur_z = hardy_z(t)
            if prev_z == 0.0:
                zeros.append(prev_t)
            elif prev_z * cur_z < 0.0:
                zeros.append(_plain_bisection(hardy_z, prev_t, t, prev_z))
            prev_t, prev_z = t, cur_z
        if len(zeros) == expected_count:
            return zeros
        spacing *= 0.5
    raise AssertionError(f"frozen scan of ({t_lo}, {t_hi}) missed its count")


def _counting(f):
    calls: list[float] = []

    def counted(t: float) -> float:
        calls.append(t)
        return f(t)

    return counted, calls


def test_bisection_replays_plain_bisection_in_at_most_12_evaluations():
    z, calls = _counting(hardy_z)
    lo, hi = 14.0, 14.25  # brackets the first zero
    root = strips_mod._bisect_zero(z, lo, hi, hardy_z(lo), hardy_z(hi))
    assert root == _plain_bisection(hardy_z, lo, hi, hardy_z(lo))
    assert len(calls) <= 12  # plain bisection takes 28
    assert lo not in calls and hi not in calls
    assert abs(root - FIRST_ZEROS[0]) < 1e-9


@pytest.fixture(scope="module")
def scanned_cells():
    """(strip bounds and Gram count, sign-change cells the scan bisected,
    zeros found) for strips 1..109, the 1e3 census, 473, which holds the
    zero of smallest |Z'| below 1e4, and 1000..1003, near the top of the
    window."""
    table = default_table()
    strips = []
    for m in (*range(1, 110), 473, *range(1000, 1004)):
        bottom, top = special_gram_point(m), special_gram_point(m + 1)
        strips.append((bottom, top, table.count_in(bottom, top)))
    cells = []
    real = strips_mod._bisect_zero

    def recording(f, lo, hi, f_lo, f_hi):
        cells.append((lo, hi, f_lo, f_hi))
        return real(f, lo, hi, f_lo, f_hi)

    strips_mod._bisect_zero = recording
    try:
        found = [[r.t for r in find_zeros(*strip)] for strip in strips]
    finally:
        strips_mod._bisect_zero = real
    return strips, cells, found


def test_bisection_replay_is_exact_on_census_cells(scanned_cells):
    _, cells, _ = scanned_cells
    assert len(cells) > 600
    for lo, hi, f_lo, f_hi in cells:
        # the grid's signs at the cell ends are hardy_z's, whichever
        # evaluator gave them
        z_lo, z_hi = hardy_z(lo), hardy_z(hi)
        assert (f_lo > 0.0) == (z_lo > 0.0) and (f_hi > 0.0) == (z_hi > 0.0)
        z, calls = _counting(hardy_z)
        root = strips_mod._bisect_zero(z, lo, hi, f_lo, f_hi)
        assert root == _plain_bisection(hardy_z, lo, hi, z_lo), (lo, hi)
        assert len(calls) <= 12, (lo, hi)
        # the guard keeps every evaluated sign over 20 times outside the
        # evaluator's noise zone: |Z| at the guard distance against the
        # ~2e-11 that hardy_z is within of mpmath.siegelz
        h = 1e-6
        slope = (hardy_z(root + h) - hardy_z(root - h)) / (2.0 * h)
        assert abs(slope) * strips_mod._REPLAY_GUARD >= 20.0 * 2e-11, root


def test_find_zeros_matches_the_frozen_scan(scanned_cells):
    strips, _, found = scanned_cells
    for strip, zeros in zip(strips, found):
        assert zeros == _frozen_scan(*strip), strip


def test_grid_falls_back_to_hardy_z_inside_the_margin(monkeypatch):
    rs_calls: list[float] = []

    def inside_margin(t: float) -> tuple[float, float]:
        rs_calls.append(t)
        value, bound = riemann_siegel_z(t)
        return math.copysign(1.999 * bound, value), bound

    hz, hz_calls = _counting(hardy_z)
    monkeypatch.setattr(strips_mod, "riemann_siegel_z", inside_margin)
    monkeypatch.setattr(strips_mod, "hardy_z", hz)
    found = [r.t for r in find_zeros(1000.0, 1010.0)]
    assert rs_calls and set(rs_calls) <= set(hz_calls)
    assert found == _frozen_scan(1000.0, 1010.0, len(found))


def test_grid_takes_the_riemann_siegel_sign_outside_the_margin(monkeypatch):
    def outside_margin(t: float) -> tuple[float, float]:
        return 2.001, 1.0  # positive everywhere: no sign change to polish

    hz, hz_calls = _counting(hardy_z)
    monkeypatch.setattr(strips_mod, "riemann_siegel_z", outside_margin)
    monkeypatch.setattr(strips_mod, "hardy_z", hz)
    assert find_zeros(1000.0, 1010.0) == []
    assert hz_calls == []


def test_grid_never_calls_riemann_siegel_below_its_range(monkeypatch):
    rs_calls: list[float] = []

    def recording(t: float) -> tuple[float, float]:
        rs_calls.append(t)
        return riemann_siegel_z(t)

    monkeypatch.setattr(strips_mod, "riemann_siegel_z", recording)
    find_zeros(150.0, 199.9)
    assert rs_calls == []
    find_zeros(190.0, 210.0)
    assert rs_calls and min(rs_calls) >= RS_T_MIN


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
    built = compute(RunConfig(t_max=25.0, out_dir=tmp_path)).strips
    assert len(built) == 1
    s = built[0]
    assert abs(s.bottom - 9.6669080561) < 1e-6
    assert s.gram_count == 1
    assert len(s.zeros) == 1
    assert s.primary_index == 1
    assert s.primary_stat == 0.5
    assert abs(s.width - (s.top - s.bottom)) < 1e-12


def test_build_three_strips_identity_and_indices(tmp_path):
    built = compute(RunConfig(t_max=40.0, out_dir=tmp_path)).strips
    assert [s.m for s in built] == [1, 2, 3]
    for s in built:
        assert len(s.zeros) == s.gram_count
        assert all(s.bottom <= t < s.top for t in s.zeros)
        assert s.bottom < s.primary_height < s.top
    # zeros.csv numbers the zeros 1..N in height order, each with its strip
    rows = list(csv.DictReader((tmp_path / "zeros.csv").read_text(encoding="utf-8").splitlines()))
    assert [int(row["j"]) for row in rows] == list(range(1, len(rows) + 1))
    assert [(row["t"], int(row["strip_m"])) for row in rows] == [
        (fmt(t), s.m) for s in built for t in s.zeros
    ]
    # strip 2 holds the 2nd and 3rd zeros
    assert [round(t, 5) for t in built[1].zeros] == [
        round(FIRST_ZEROS[1], 5),
        round(FIRST_ZEROS[2], 5),
    ]


def test_zeros_per_width_tracks_gap_model(tmp_path):
    built = compute(RunConfig(t_max=120.0, out_dir=tmp_path)).strips
    assert len(built) == 12  # top crossing 117.63; the next is 126.10
    for s in built[10:]:
        midpoint = 0.5 * (s.bottom + s.top)
        model = 1.0 / gap_model(midpoint)
        density = len(s.zeros) / s.width
        assert abs(density - model) / density < 0.05


def test_strip_validation_rejects_count_mismatch():
    with pytest.raises(CountMismatch):
        Strip(
            m=1,
            bottom=10.0,
            top=19.0,
            gram_count=2,
            zeros=(12.0,),
            primary_index=1,
            primary_height=12.0,
        )


def test_strip_validation_rejects_bad_primary_index():
    with pytest.raises(EscapedStrip):
        Strip(
            m=1,
            bottom=10.0,
            top=19.0,
            gram_count=1,
            zeros=(12.0,),
            primary_index=2,
            primary_height=12.0,
        )


def test_assemble_strip_rejects_foreign_primary():
    with pytest.raises(EscapedStrip):
        Strip(
            m=1,
            bottom=10.0,
            top=19.0,
            gram_count=default_table().count_in(10.0, 19.0),  # g_0 = 17.8456
            zeros=(14.134725,),
            primary_index=1,  # the zero nearest the primary
            primary_height=21.0,  # outside the strip
        )


def test_strip_checks_count_before_primary():
    # two Gram points (g_-1 = 9.667, g_0 = 17.846) but one scanned zero
    with pytest.raises(CountMismatch):
        Strip(
            m=1,
            bottom=9.0,
            top=19.0,
            gram_count=default_table().count_in(9.0, 19.0),
            zeros=(14.134725,),
            primary_index=1,
            primary_height=14.134725,
        )


def test_strip_reports_count_mismatch_over_a_foreign_primary():
    # the zero list is short and the primary lies outside the strip: the
    # count check runs first, so the census reports the broken identity
    with pytest.raises(CountMismatch):
        Strip(
            m=1,
            bottom=9.0,
            top=19.0,
            gram_count=default_table().count_in(9.0, 19.0),
            zeros=(14.134725,),
            primary_index=1,
            primary_height=21.0,
        )
