"""Tracing contracts: launch points, path invariants, terminal zeros,
special Gram points, and primary zeros."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import LN2, bisect_root
from zetastrips import contour
from zetastrips.contour import (
    launch_point,
    primary_zero_of_strip,
    special_gram_point,
    strip_boundary,
    trace,
)
from zetastrips.errors import DomainError
from zetastrips.gram import default_table
from zetastrips.strips import find_zeros
from zetastrips.zeta import ComplexPoint, hardy_z, zeta, zeta_with_derivative

# frozen launch heights (Newton on the full evaluator, seeded at k pi/ln 2)
LAUNCH_2_T = 9.165712891246
LAUNCH_3_T = 13.715612481680644


def test_launch_point_k2():
    p = launch_point(2)
    assert p.sigma == 5.0
    assert abs(p.t - LAUNCH_2_T) < 1e-9
    # the shift from the two-term seed is controlled by the third Dirichlet
    # term amplified through the two-term slope: (2/3)^sigma / ln 2
    assert abs(p.t - 2.0 * math.pi / LN2) < 1.2 * (2.0 / 3.0) ** 5 / LN2
    z, _ = zeta_with_derivative(complex(p.sigma, p.t))
    assert abs(z.imag) < 1e-10
    assert z.real > 0.0


def test_launch_point_k3_and_high():
    p3 = launch_point(3)
    assert abs(p3.t - LAUNCH_3_T) < 1e-9
    assert abs(p3.t - 3.0 * math.pi / LN2) < 1.2 * (2.0 / 3.0) ** 5 / LN2
    p_high = launch_point(2204)
    assert abs(p_high.t - 2204.0 * math.pi / LN2) < 0.5 * math.pi / LN2


def test_launch_point_rejects_low_index():
    with pytest.raises(DomainError):
        launch_point(1)


def test_trace_boundary_contour_k2():
    path = trace(launch_point(2))
    assert path.zero is None
    assert path.crossing_t is not None
    assert abs(path.crossing_t - 9.6669080561) < 1e-6

    samples = path.samples
    # residual invariant at every recorded point
    mags = np.hypot(samples[:, 2], samples[:, 3])
    assert np.all(np.abs(samples[:, 3]) < 1e-8 * np.maximum(1.0, mags))
    # consecutive points closer than twice the step bound
    gaps = np.hypot(np.diff(samples[:, 0]), np.diff(samples[:, 1]))
    assert np.max(gaps) < 2.0 * contour.STEP
    # Re zeta stays positive along the whole branch
    assert np.min(samples[:, 2]) > 0.0
    # terminates within one step past sigma_min
    assert contour.SIGMA_MIN - contour.STEP <= samples[-1, 0]
    assert samples[-1, 0] <= contour.SIGMA_MIN


def test_trace_primary_contour_k3_terminates_at_first_zero():
    oracle = bisect_root(hardy_z, 14.0, 14.3, tol=1e-10)
    path = trace(launch_point(3))
    zero = path.zero
    assert zero is not None
    assert abs(zero.sigma - 0.5) < 1e-9
    assert abs(zero.t - oracle) < 1e-6
    assert abs(zero.t - 14.134725) < 1e-5
    # zeta is real on the contour and keeps the launch sign up to the zero
    assert np.min(path.samples[:, 2]) > 0.0


def test_trace_rejects_off_contour_start():
    with pytest.raises(DomainError):
        trace(ComplexPoint(5.0, 9.3))


@pytest.mark.parametrize("step", [0.0, -0.02, math.nextafter(contour._MAX_STEP, 1.0)])
def test_trace_rejects_step_outside_the_ceiling(step):
    with pytest.raises(DomainError):
        trace(launch_point(2), step=step)


def test_tangent_orthogonality_and_cauchy_riemann():
    path = trace(launch_point(2))
    samples = path.samples
    for idx in range(0, samples.shape[0] - 1, 40):
        sigma, t = samples[idx, 0], samples[idx, 1]
        _, dz = zeta_with_derivative(complex(sigma, t))
        grad = np.array([dz.imag, dz.real])
        step = samples[idx + 1, :2] - samples[idx, :2]
        step /= np.linalg.norm(step)
        # the step direction is orthogonal to the Im-zeta gradient; the
        # corrector bends it by at most the curvature over one step
        assert abs(float(grad @ step)) < 0.1 * np.linalg.norm(grad)
        # finite-difference d/dsigma Im zeta vs Im zeta'
        h = 1e-6
        im_plus = zeta(ComplexPoint(sigma + h, t)).value.imag
        im_minus = zeta(ComplexPoint(sigma - h, t)).value.imag
        assert abs((im_plus - im_minus) / (2 * h) - dz.imag) < 1e-5


def test_special_gram_point_first_two():
    s1 = special_gram_point(1)
    assert abs(s1 - 9.6669080561) < 1e-6
    s2 = special_gram_point(2)
    assert abs(s2 - 17.84559954) < 1e-5
    # deviation from the 2 m pi / ln 2 model stays inside (-2, 2)
    assert -2.0 < s2 - 2.0 * 2.0 * math.pi / LN2 < 2.0
    assert s1 < s2
    assert default_table().index_near(s1, 1e-6) == -1
    assert default_table().index_near(s2, 1e-6) == 0


def test_special_gram_points_are_ordered_for_small_m():
    crossings = [special_gram_point(m) for m in range(1, 6)]
    assert all(b > a for a, b in zip(crossings, crossings[1:]))
    for m, c in enumerate(crossings, start=1):
        assert default_table().index_near(c, 1e-6) is not None


def test_special_gram_point_rejects_m_zero():
    with pytest.raises(DomainError):
        special_gram_point(0)


def test_primary_zero_strip_one():
    zero = primary_zero_of_strip(1)
    assert abs(zero.sigma - 0.5) < 1e-6
    assert abs(zero.t - 14.134725) < 1e-5
    assert special_gram_point(1) < zero.t < special_gram_point(2)


def test_primary_zero_strip_two_contained():
    zero = primary_zero_of_strip(2)
    assert special_gram_point(2) < zero.t < special_gram_point(3)


@pytest.mark.parametrize("m", [1, 2, 3, 40, 100])
def test_primary_zero_capture_is_exact_and_cheap(monkeypatch, m):
    bottom, top = special_gram_point(m), special_gram_point(m + 1)
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return zeta_with_derivative(*args, **kwargs)

    monkeypatch.setattr(contour, "zeta_with_derivative", counted)
    zero = primary_zero_of_strip(m, check_containment=False)
    # Newton capture ends the trace; the step-by-step approach took ~980
    assert calls < 300
    assert bottom < zero.t < top
    scanned = [r.t for r in find_zeros(bottom, top)]
    assert min(abs(t - zero.t) for t in scanned) < 1e-9


def test_boundaries_never_enter_the_capture(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("boundary trace attempted a Newton capture")

    strip_boundary.cache_clear()
    monkeypatch.setattr(contour, "_newton_zero", refuse)
    for m in range(1, 6):
        strip_boundary(m)


def test_strip_boundary_memo_ignores_the_call_form():
    strip_boundary.cache_clear()
    special_gram_point(2)
    strip_boundary(2)
    strip_boundary(2)
    info = strip_boundary.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    # m is positional-only, so a keyword call cannot fill a second entry
    with pytest.raises(TypeError):
        strip_boundary(m=2)


def test_strip_widths_near_model():
    # crossing gaps match the mean-width model to a few percent even low
    crossings = [special_gram_point(m) for m in range(1, 6)]
    for a, b in zip(crossings, crossings[1:]):
        width = b - a
        assert abs(width - 2.0 * math.pi / LN2) < 2.0
