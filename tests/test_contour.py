"""Tracing contracts: launch points, path invariants, terminal zeros,
special Gram points, and primary zeros."""

from __future__ import annotations

import math
import re

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
from zetastrips import zeta as zeta_module
from zetastrips.errors import (
    DomainError,
    EscapedStrip,
    NoTerminalZero,
    NotSpecial,
    StepCollapse,
)
from zetastrips.gram import default_table, gram_point
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


@pytest.mark.parametrize("step", [contour.STEP, contour.STEP / 4])
def test_trace_boundary_contour_k2(step):
    path = trace(launch_point(2), step)
    assert path.zero is None

    samples = path.samples
    # residual invariant at every recorded point
    mags = np.hypot(samples[:, 2], samples[:, 3])
    assert np.all(np.abs(samples[:, 3]) < 1e-8 * np.maximum(1.0, mags))
    # consecutive points closer than twice the step bound: the trace's step
    # up to the first sample at sigma <= 1/2, the ceiling on the tail after
    # it, for a first try and a parity retry alike
    past = int(np.argmax(samples[:, 0] <= 0.5))
    gaps = np.hypot(np.diff(samples[:, 0]), np.diff(samples[:, 1]))
    assert np.max(gaps[:past]) < 2.0 * step
    assert np.max(gaps[past:]) < 2.0 * contour._MAX_STEP
    # and the tail does go coarse: its path decides no emitted bit
    assert np.max(gaps[past:]) > 2.0 * contour.STEP
    # Re zeta stays positive along the whole branch
    assert np.min(samples[:, 2]) > 0.0
    # terminates within one tail step past sigma_min
    assert contour.SIGMA_MIN - contour._MAX_STEP <= samples[-1, 0]
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


def test_trace_solves_no_crossing(monkeypatch):
    # the 0.4 first try of primary k = 75 runs past the critical line to
    # SIGMA_MIN; only strip_boundary turns a crossing into a height
    start = launch_point(75)
    calls: list[float] = []
    real = contour._line_root

    def recording(sigma, t):
        calls.append(sigma)
        return real(sigma, t)

    monkeypatch.setattr(contour, "_line_root", recording)
    path = trace(start, contour._MAX_STEP)
    assert path.zero is None
    assert path.samples[-1, 0] <= contour.SIGMA_MIN
    assert calls == []


def test_trace_rejects_off_contour_start():
    with pytest.raises(DomainError):
        trace(ComplexPoint(5.0, 9.3))


@pytest.mark.parametrize("step", [0.0, -0.02, math.nextafter(contour._MAX_STEP, 1.0)])
def test_trace_rejects_step_outside_the_ceiling(step):
    with pytest.raises(DomainError):
        trace(launch_point(2), step=step)


def test_corrector_that_never_settles_collapses_the_step(monkeypatch):
    # Im zeta is 1 everywhere off the start, and a gradient step does not
    # change it: every predictor fails, and the step halves below _MIN_STEP
    start = ComplexPoint(5.0, 10.0)

    def unsettled(s):
        return complex(1.0, 0.0 if s == complex(5.0, 10.0) else 1.0), complex(1.0, 0.0)

    monkeypatch.setattr(contour, "zeta_with_derivative", unsettled)
    with pytest.raises(StepCollapse, match="step collapsed below"):
        trace(start)


def test_vanishing_gradient_at_an_accepted_point_collapses(monkeypatch):
    # the first step settles at once, on a point where zeta' = 0
    start = ComplexPoint(5.0, 10.0)

    def flat(s):
        return complex(1.0, 0.0), complex(1.0 if s == complex(5.0, 10.0) else 0.0, 0.0)

    monkeypatch.setattr(contour, "zeta_with_derivative", flat)
    with pytest.raises(StepCollapse, match="vanishing gradient"):
        trace(start)


def test_newton_that_leaves_the_window_fails_without_escaping(monkeypatch):
    # zeta = 1/(s - c): Im = 0 on t = Im c, and Re flips at the pole c,
    # where every Newton step doubles the distance to c until the iterate
    # leaves the evaluation window; the capture tries carry on, and the
    # terminal-zero Newton at the flip fails as a StepCollapse
    c = complex(2.3, 10.0)

    def pole(s):
        zeta_module._checked(s)
        w = 1.0 / (s - c)
        return w, -w * w

    monkeypatch.setattr(contour, "zeta_with_derivative", pole)
    assert contour._newton_zero(c + 0.01, *pole(c + 0.01)) is None
    with pytest.raises(StepCollapse, match="terminal zero near"):
        trace(ComplexPoint(5.0, 10.0))


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
    # the first two strip edges are the Gram points g_-1 and g_0
    assert strip_boundary(1)[1] == -1
    assert strip_boundary(2)[1] == 0


def test_special_gram_points_are_ordered_for_small_m():
    crossings = [special_gram_point(m) for m in range(1, 6)]
    assert all(b > a for a, b in zip(crossings, crossings[1:]))
    for m, c in enumerate(crossings, start=1):
        assert default_table().index_near(c) is not None


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
    # Newton capture ends the trace at the 0.4 ceiling in 81-100 calls;
    # at 0.1 it took 133-175, and the step-by-step approach ~980
    assert calls < 120
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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 1000])
def test_boundary_tail_decides_no_bit(monkeypatch, m):
    # the coarse tail starts at the first sample at sigma <= 1/2 and min
    # |zeta| is read at sigma >= 1/2 only, so both equal those of a trace
    # held at STEP
    crossing, n, min_abs = strip_boundary(m)
    monkeypatch.setattr(contour, "_MAX_STEP", contour.STEP)
    assert strip_boundary.__wrapped__(m) == (crossing, n, min_abs)


def test_crossing_off_its_gram_point_is_not_special(monkeypatch):
    # 6e-7 in t near 1e4 is a theta/pi residual of 7e-7, under 1e-6, but
    # the crossing must lie within 5e-7 of g_n
    m = 1100
    crossing, n, _ = strip_boundary(m)
    assert abs(crossing - gram_point(n)) < 1e-8
    real_root = contour._line_root

    def moved(sigma, t):
        root, z = real_root(sigma, t)
        return root + (6e-7 if sigma == 0.5 else 0.0), z

    monkeypatch.setattr(contour, "_line_root", moved)
    with pytest.raises(NotSpecial, match="no Gram point"):
        strip_boundary.__wrapped__(m)


def test_crossing_where_re_zeta_is_not_positive_is_not_special(monkeypatch):
    # b_n > 0 at every strip edge: with Re zeta negated on sigma = 1/2 only,
    # the crossing's Newton, which reads Im zeta and Re zeta', lands where it
    # did, and the value it last evaluated fails the check
    crossing, _, _ = strip_boundary(1)
    real = contour.zeta_with_derivative

    def negated(s):
        z, dz = real(s)
        return (complex(-z.real, z.imag), dz) if s.real == 0.5 else (z, dz)

    strip_boundary.cache_clear()  # a memoized boundary skips the check
    monkeypatch.setattr(contour, "zeta_with_derivative", negated)
    message = f"boundary 1 crosses at {crossing}, where Re zeta = -"
    with pytest.raises(NotSpecial, match=re.escape(message)):
        strip_boundary(1)


def _canned_trace(monkeypatch, zeros) -> list[float]:
    """Make ``contour.trace`` return, call by call, a path that ends at
    each of ``zeros`` in turn (None: one that reached SIGMA_MIN); the list
    it returns fills with the step of each call."""
    steps: list[float] = []
    ends = iter(zeros)

    def canned(start, step=contour.STEP):
        steps.append(step)
        return contour.ContourPath(np.empty((0, 4)), next(ends))

    monkeypatch.setattr(contour, "trace", canned)
    return steps


def test_boundary_that_ends_at_a_zero_is_not_special(monkeypatch):
    # trace ends at any point with |zeta| < ZERO_RADIUS, so this is the
    # boundary's one zero-clearance check; the parity retries first narrow
    # the step to a quarter and to a sixteenth
    steps = _canned_trace(monkeypatch, [ComplexPoint(0.5, 12.0)] * 3)
    with pytest.raises(NotSpecial, match="terminated at a zero"):
        strip_boundary.__wrapped__(1)
    assert steps == [0.02, 0.005, 0.00125]


def test_primary_parity_retry_returns_the_zero_of_the_finer_step(monkeypatch):
    zero = ComplexPoint(0.5, 14.0)
    steps = _canned_trace(monkeypatch, [None, zero])
    assert primary_zero_of_strip(1, check_containment=False) == zero
    assert steps == [0.4, 0.1]


def test_primary_that_never_ends_at_a_zero_raises(monkeypatch):
    steps = _canned_trace(monkeypatch, [None] * 3)
    with pytest.raises(NoTerminalZero):
        primary_zero_of_strip(1, check_containment=False)
    assert steps == [0.4, 0.1, 0.025]


@pytest.mark.parametrize("t", [5.0, 10.0, 20.0, 25.0])
def test_primary_zero_outside_its_strip_escapes(monkeypatch, t):
    # strip 1 is [10, 20): a zero on the critical line at its bottom, at
    # its top or beyond either escapes
    _canned_trace(monkeypatch, [ComplexPoint(0.5, t)])
    monkeypatch.setattr(contour, "special_gram_point", lambda m: 10.0 * m)
    with pytest.raises(EscapedStrip, match="outside strip 1"):
        primary_zero_of_strip(1)


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
