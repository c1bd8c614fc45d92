"""Evaluator contracts: special values, oracle agreement, symmetry,
derivatives, the theta asymptotic, and the Hardy function."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from conftest import FIRST_ZEROS, bisect_root, central_diff, direct_sum_zeta
from zetastrips import zeta as zeta_mod
from zetastrips.errors import DomainError, PoleProximity, PrecisionLoss, WindowExceeded
from zetastrips.zeta import (
    ComplexPoint,
    RS_T_MIN,
    T_ABS_MAX,
    hardy_z,
    riemann_siegel_z,
    rs_theta,
    rs_theta_deriv,
    zeta,
)

# frozen during development from the direct-summation oracle (1e5 terms)
ZETA_6_50I = 0.9846348180431738 + 0.0029168673649536433j


def test_zeta_at_two_is_pi_squared_over_six():
    val = zeta(ComplexPoint(2.0, 0.0)).value
    assert abs(val - math.pi**2 / 6.0) < 1e-10


def test_zeta_at_zero():
    assert abs(zeta(ComplexPoint(0.0, 0.0)).value - (-0.5)) < 1e-12


def test_zeta_against_direct_sum_oracle():
    oracle = direct_sum_zeta(complex(6.0, 50.0), 100_000)
    assert abs(oracle - ZETA_6_50I) < 1e-12  # oracle reproduces the frozen value
    val = zeta(ComplexPoint(6.0, 50.0)).value
    assert abs(val - oracle) < 1e-10


def test_large_sigma_two_term_form():
    # beyond the first two Dirichlet terms everything is < 3^-8 in size
    val = zeta(ComplexPoint(8.0, 100.0)).value
    assert abs(val - 1.0) < 1.1 * 2.0**-8
    for t in (50.0, 500.0, 5000.0):
        v = zeta(ComplexPoint(8.0, t)).value
        two_term = 1.0 + complex(np.exp(-complex(8.0, t) * math.log(2.0)))
        assert abs(v - two_term) < 2.0 * 3.0**-8


def test_direct_summation_agreement_high_sigma(rng):
    for _ in range(5):
        sigma = rng.uniform(3.0, 8.0)
        t = rng.uniform(10.0, 2000.0)
        oracle = direct_sum_zeta(complex(sigma, t), 1_000_000)
        val = zeta(ComplexPoint(sigma, t)).value
        assert abs(val - oracle) < 1e-10


def test_conjugate_symmetry_100_points(rng):
    worst = 0.0
    count = 0
    while count < 100:
        sigma = rng.uniform(-2.0, 8.0)
        t = rng.uniform(0.5, 1.1e4)
        if abs(complex(sigma, t) - 1.0) < 0.5:
            continue
        count += 1
        a = zeta(ComplexPoint(sigma, t)).value
        b = zeta(ComplexPoint(sigma, -t)).value
        worst = max(worst, abs(b - a.conjugate()))
    assert worst < 1e-10


def test_derivative_against_finite_differences(rng):
    def f(s: complex) -> complex:
        return zeta(ComplexPoint(s.real, s.imag)).value

    for _ in range(50):
        sigma = rng.uniform(-1.0, 7.0)
        t = rng.uniform(8.0, 9.0e3)
        got = zeta(ComplexPoint(sigma, t), derivative=True).derivative
        fd = central_diff(f, complex(sigma, t))
        assert abs(fd - got) / abs(got) < 1e-6


def test_est_error_bound_holds_against_mpmath():
    mpmath.mp.dps = 30
    for sigma, t in [(0.5, 14.1), (0.5, 1.0e4), (0.0, 5000.0), (3.0, 1000.0)]:
        out = zeta(ComplexPoint(sigma, t))
        truth = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
        # observed error = truncation (bounded by est_error) + fp rounding
        assert abs(out.value - truth) < out.est_error + 5e-9
        assert out.est_error <= 1e-10


def test_pole_proximity():
    with pytest.raises(PoleProximity):
        zeta(ComplexPoint(1.0, 1e-9))
    # nearby but outside the guard evaluates fine
    assert abs(zeta(ComplexPoint(1.0, 0.1)).value) > 1.0


def test_window_exceeded():
    with pytest.raises(WindowExceeded):
        zeta(ComplexPoint(9.0, 10.0))
    with pytest.raises(WindowExceeded):
        zeta(ComplexPoint(0.5, 1.2e4))


def test_precision_loss_under_a_tight_target(monkeypatch):
    # on the critical line the tail bound is about 1.9e-21 at t = 1e4 and
    # 1.2e-28 at t = 15; a target between them raises only high up
    monkeypatch.setattr(zeta_mod, "TARGET_ABS_ERROR", 1e-24)
    with pytest.raises(PrecisionLoss):
        zeta(ComplexPoint(0.5, 1.0e4))
    val = zeta(ComplexPoint(0.5, 15.0))
    assert val.est_error <= 1e-24


# --- rs_theta ----------------------------------------------------------------


def test_rs_theta_domain():
    with pytest.raises(DomainError):
        rs_theta(6.9)


def test_rs_theta_at_two_pi_e():
    t = 2.0 * math.pi * math.e
    assert rs_theta(t) < 0.0
    assert rs_theta_deriv(t) > 0.0


def test_rs_theta_at_first_strip_bottom():
    # the paper's first strip bottom is the n = -1 Gram point
    assert abs(rs_theta(9.6669080561) - (-math.pi)) < 1e-6


def test_rs_theta_index_zero_gram_point():
    root = bisect_root(rs_theta, 15.0, 2.0 * math.pi * math.e + 5.0)
    assert abs(root - 17.8455995) < 1e-5
    assert abs(rs_theta(17.8455995)) < 1e-6


def test_rs_theta_monotone():
    ts = np.linspace(7.0, 1.05e4, 400)
    vals = [rs_theta(float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_rs_theta_against_loggamma_form():
    mpmath.mp.dps = 30
    for t in (7.0, 9.7, 50.0, 1.0e4):
        truth = float(mpmath.siegeltheta(t))
        assert abs(rs_theta(t) - truth) < 3e-8


# --- hardy_z -----------------------------------------------------------------


def test_hardy_z_first_zero():
    root = bisect_root(hardy_z, 14.0, 14.3, tol=1e-10)
    assert abs(root - 14.134725) < 1e-5
    assert abs(hardy_z(14.134725)) < 1e-5


def test_hardy_z_at_even_gram_point():
    # theta = 0 there, so Z equals Re zeta and Gram's law gives Z > 0
    z = hardy_z(17.8455995)
    assert z > 0.0
    re = zeta(ComplexPoint(0.5, 17.8455995)).value.real
    assert abs(z - re) < 1e-8


def test_hardy_z_modulus_matches_zeta():
    for t in (20.0, 123.456, 5000.0):
        z = hardy_z(t)
        mag = abs(zeta(ComplexPoint(0.5, t)).value)
        assert abs(abs(z) - mag) < 1e-8


def test_hardy_z_rotation_consistency_at_20():
    # Z is the rotated zeta; check the definitional identity directly
    theta = rs_theta(20.0)
    val = zeta(ComplexPoint(0.5, 20.0)).value
    rotated = complex(math.cos(theta), math.sin(theta)) * val
    assert abs(rotated.real - hardy_z(20.0)) < 1e-7
    assert math.copysign(1.0, hardy_z(20.0)) == math.copysign(1.0, rotated.real)


def test_hardy_z_sign_changes_between_known_zeros():
    mids = [7.5] + [
        0.5 * (a + b) for a, b in zip(FIRST_ZEROS, FIRST_ZEROS[1:])
    ]
    signs = [math.copysign(1.0, hardy_z(t)) for t in mids]
    for a, b in zip(signs, signs[1:]):
        assert a * b < 0.0  # exactly one zero between consecutive midpoints


def test_hardy_z_domain():
    with pytest.raises(DomainError):
        hardy_z(5.0)


def test_hardy_z_stops_at_the_window_ceiling():
    # the fixed log n table covers the window and no more
    assert math.isfinite(hardy_z(T_ABS_MAX))
    with pytest.raises(DomainError):
        hardy_z(math.nextafter(T_ABS_MAX, math.inf))


# --- riemann_siegel_z -------------------------------------------------------


def _siegel_oracle_heights() -> list[float]:
    """About 100 seeded heights in [200, 1.1e4], plus heights whose
    p = frac(sqrt(t / 2pi)) lies within 1e-3 of 1/4 and 3/4, where the C0
    term Psi(p) is a quotient of two small cosines."""
    rng = np.random.default_rng(200_11_000)
    heights = list(rng.uniform(RS_T_MIN, T_ABS_MAX, 100))
    for n in rng.integers(6, 41, 6):
        for centre in (0.25, 0.75):
            for offset in (-1e-3, -1e-5, 1e-5, 1e-3):
                heights.append(2.0 * math.pi * (n + centre + offset) ** 2)
    return heights


def test_riemann_siegel_z_and_hardy_z_against_mpmath_siegelz():
    # fp.siegelz is mpmath's own Riemann-Siegel evaluation in double
    # precision, within 4e-12 of mp.siegelz over this range
    for t in _siegel_oracle_heights():
        oracle = mpmath.fp.siegelz(t)
        value, bound = riemann_siegel_z(t)
        assert bound == 0.127 * t**-0.75
        assert abs(value - oracle) <= bound, t
        assert abs(hardy_z(t) - oracle) <= 1e-10, t


def test_riemann_siegel_z_claims_no_bound_where_psi_is_unresolved():
    # p = 1/4 exactly: cos 2pi p vanishes and Psi is a 0/0 quotient
    t = 2.0 * math.pi * 20.25**2
    value, bound = riemann_siegel_z(t)
    assert bound == math.inf
    assert math.isfinite(value)


def test_riemann_siegel_z_domain():
    assert riemann_siegel_z(RS_T_MIN)[1] < math.inf
    with pytest.raises(DomainError):
        riemann_siegel_z(math.nextafter(RS_T_MIN, 0.0))
    with pytest.raises(DomainError):
        riemann_siegel_z(math.nextafter(T_ABS_MAX, math.inf))


@pytest.mark.parametrize("k", range(1, 22))
def test_bernoulli_table_entry_is_exact(k):
    from fractions import Fraction

    from zetastrips.zeta import _BERNOULLI_OVER_FACTORIAL

    exact = Fraction(*mpmath.bernfrac(2 * k)) / math.factorial(2 * k)
    assert _BERNOULLI_OVER_FACTORIAL[k - 1] == float(exact)
