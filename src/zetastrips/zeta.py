"""Double-precision evaluation of zeta(s), zeta'(s), the Riemann-Siegel
theta asymptotic, and the Hardy function Z(t).

The evaluator is Euler-Maclaurin throughout: a truncated Dirichlet sum of
N = ceil(factor * |t| / 2pi) + 10 terms, the integral tail N^(1-s)/(s-1),
the half term N^(-s)/2, and K Bernoulli correction terms

    T_k = B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1).

The reported ``est_error`` is the classical bound on the truncated
Bernoulli tail (Edwards, Riemann's Zeta Function, 1974, ch. 6),

    |R_K| <= |T_{K+1}| * |s + 2K + 1| / (sigma + 2K + 1),

which is conservative for every point of the evaluation window
sigma in [-2, 8], |t| <= 1.1e4.  It is read off the correction recurrence,
which ends holding the rising product of T_{K+1}.  The log n come from one
fixed table, sized by the window and EM_TERMS_FACTOR.  Derivatives
differentiate each term analytically; no finite differences anywhere in
the evaluator.

``riemann_siegel_z`` evaluates Z(t) by the Riemann-Siegel formula with
Gabcke's error bound, about 40 terms at t = 1e4 in place of 5103.  It
only supplies signs the bound settles; every value the census emits
comes from the Euler-Maclaurin evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleProximity, PrecisionLoss, WindowExceeded

SIGMA_MIN = -2.0
SIGMA_MAX = 8.0
T_ABS_MAX = 1.1e4
THETA_T_MIN = 7.0

# the one truncation of the census: N = ceil(factor |t| / 2pi) + 10 terms,
# K = 20 corrections; the tail bound stays below about 5.1e-12 over the
# window (worst at sigma = -2, |t| = 1.1e4), and a larger bound than
# TARGET_ABS_ERROR raises PrecisionLoss
EM_TERMS_FACTOR = 3.2
BERNOULLI_ORDER = 20
TARGET_ABS_ERROR = 1e-10

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ComplexPoint:
    """A point s = sigma + i t of the evaluation window."""

    sigma: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise DomainError(f"non-finite point ({self.sigma}, {self.t})")

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class ZetaValue:
    value: complex
    derivative: complex | None
    est_error: float


# --- Bernoulli coefficients B_{2k}/(2k)!, k = 1..21 ------------------------
# Exact rationals rounded to the nearest double; the tail bound reads k = 21.

_BERNOULLI_OVER_FACTORIAL = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
)

# (B_2k/(2k)!, 2k - 1, 2k) for the correction terms k = 1..BERNOULLI_ORDER
_CORRECTIONS = tuple(
    (c, 2.0 * k - 1.0, 2.0 * k)
    for k, c in enumerate(_BERNOULLI_OVER_FACTORIAL[:BERNOULLI_ORDER], 1)
)


def _cutoff(t: float, factor: float) -> int:
    return math.ceil(factor * abs(t) / _TWO_PI) + 10


# log n, n = 1..N-1 for the largest cutoff N in the window; stored complex
# so that numpy skips the float-to-complex cast of every call
_LOG_N = np.log(
    np.arange(1, _cutoff(T_ABS_MAX, EM_TERMS_FACTOR), dtype=np.float64)
).astype(np.complex128)


def _checked(s: complex) -> complex:
    """s, once it lies inside the window and 1e-6 or more from the pole."""
    if not (SIGMA_MIN <= s.real <= SIGMA_MAX) or abs(s.imag) > T_ABS_MAX:
        raise WindowExceeded(
            f"s = ({s.real}, {s.imag}) outside sigma in [{SIGMA_MIN}, {SIGMA_MAX}], "
            f"|t| <= {T_ABS_MAX}"
        )
    if abs(s - 1.0) < 1e-6:
        raise PoleProximity(f"s = {s} within 1e-6 of the pole at 1")
    return s


def _zeta_em(s: complex, want_derivative: bool) -> tuple[complex, complex | None, float]:
    """Core Euler-Maclaurin evaluation; callers have checked the window."""
    n_cut = _cutoff(s.imag, EM_TERMS_FACTOR)

    ln = _LOG_N[: n_cut - 1]
    terms = np.exp(-s * ln)
    value = complex(terms.sum())

    ln_cut = math.log(n_cut)
    n_pow_ms = complex(np.exp(-s * ln_cut))  # N^-s
    integral = n_pow_ms * n_cut / (s - 1.0)
    half = 0.5 * n_pow_ms
    value += integral + half

    deriv, dprod = None, 1.0
    if want_derivative:
        deriv = complex(-(ln * terms).sum())
        deriv += -ln_cut * integral - n_pow_ms * n_cut / (s - 1.0) ** 2
        deriv += -ln_cut * half

    # Bernoulli corrections with the rising product and its derivative
    # carried incrementally; no intermediate overflows for |s| <= 1.1e4.
    prod = s
    npow = n_pow_ms / n_cut  # N^(-s-1)
    n_sq = n_cut * n_cut
    for c_k, a, b in _CORRECTIONS:
        value += c_k * prod * npow
        f1 = s + a
        f2 = s + b
        if want_derivative:
            deriv += c_k * (dprod - ln_cut * prod) * npow
            dprod = dprod * f1 * f2 + prod * (f1 + f2)
        prod = prod * f1 * f2
        npow = npow / n_sq

    # prod is now s(s+1)...(s+2K): |T_{K+1}| * |s+2K+1| / (sigma+2K+1)
    npow_k = n_cut ** (-s.real - 2 * BERNOULLI_ORDER - 1)
    t_next = abs(_BERNOULLI_OVER_FACTORIAL[BERNOULLI_ORDER]) * abs(prod) * npow_k
    bound = t_next * abs(s + 2 * BERNOULLI_ORDER + 1) / (s.real + 2 * BERNOULLI_ORDER + 1)
    if bound > TARGET_ABS_ERROR:
        raise PrecisionLoss(
            f"tail bound {bound:.3e} exceeds target {TARGET_ABS_ERROR:.3e} "
            f"at s = {s} (N = {n_cut}, K = {BERNOULLI_ORDER})"
        )
    return value, deriv, bound


def zeta(s: ComplexPoint, *, derivative: bool = False) -> ZetaValue:
    """Evaluate zeta(s) (and optionally zeta'(s)) inside the window.

    Raises PoleProximity within 1e-6 of s = 1, WindowExceeded outside the
    window, and PrecisionLoss when the tail bound cannot meet the target.
    """
    value, deriv, bound = _zeta_em(_checked(s.s), derivative)
    return ZetaValue(value=value, derivative=deriv, est_error=bound)


def zeta_with_derivative(s: complex) -> tuple[complex, complex]:
    """(zeta(s), zeta'(s)) as plain complex numbers; the tracing hot path."""
    value, deriv, _ = _zeta_em(_checked(s), True)
    assert deriv is not None
    return value, deriv


# --- Riemann-Siegel theta asymptotic ----------------------------------------


def rs_theta(t: float) -> float:
    """Five-term theta asymptotic

        t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760 t^3),

    monotone increasing for t >= 7.  Gram points solve rs_theta(g) = n pi.
    """
    if t < THETA_T_MIN:
        raise DomainError(f"rs_theta requires t >= {THETA_T_MIN}, got {t}")
    return (
        0.5 * t * math.log(t / _TWO_PI)
        - 0.5 * t
        - math.pi / 8.0
        + 1.0 / (48.0 * t)
        + 7.0 / (5760.0 * t**3)
    )


def rs_theta_deriv(t: float) -> float:
    """d/dt of the five-term asymptotic; positive on the domain."""
    if t < THETA_T_MIN:
        raise DomainError(f"rs_theta_deriv requires t >= {THETA_T_MIN}, got {t}")
    return 0.5 * math.log(t / _TWO_PI) - 1.0 / (48.0 * t**2) - 21.0 / (5760.0 * t**4)


def _rs_theta_rotation(t: float) -> float:
    # Two extra asymptotic terms so the rotation's phase error stays below
    # 4e-10 down to t = 7; the five-term public form is 2.3e-8 off there,
    # which would breach the 1e-8 imaginary-residual contract of hardy_z.
    return rs_theta(t) + 31.0 / (80640.0 * t**5) + 127.0 / (430080.0 * t**7)


def hardy_z(t: float) -> float:
    """Hardy function Z(t) = e^{i theta(t)} zeta(1/2 + it), real-valued.

    |Z(t)| = |zeta(1/2 + it)|; sign changes of Z locate critical zeros.
    The imaginary residual of the rotation is asserted below 1e-8 and
    discarded.
    """
    if not THETA_T_MIN <= t <= T_ABS_MAX:
        raise DomainError(f"hardy_z requires t in [{THETA_T_MIN}, {T_ABS_MAX}], got {t}")
    val, _, _ = _zeta_em(complex(0.5, t), False)
    phase = _rs_theta_rotation(t)
    rotation = complex(math.cos(phase), math.sin(phase))
    rotated = rotation * val
    if abs(rotated.imag) >= 1e-8:
        raise PrecisionLoss(
            f"hardy_z imaginary residual {rotated.imag:.3e} at t = {t}"
        )
    return rotated.real


# --- Riemann-Siegel formula -------------------------------------------------

# Gabcke (1979): after the main sum and the C0 term, |Z - Z_RS| <= 0.127 t^-3/4
# for t >= 200
RS_T_MIN = 200.0
RS_BOUND_COEFF = 0.127

# the main sum's largest N in the window, floor(sqrt(1.1e4 / 2pi)) = 41
_RS_TERMS = math.isqrt(int(T_ABS_MAX / _TWO_PI))
_RS_LOG_N = np.log(np.arange(1, _RS_TERMS + 1, dtype=np.float64))
_RS_RSQRT_N = 1.0 / np.sqrt(np.arange(1, _RS_TERMS + 1, dtype=np.float64))


def riemann_siegel_z(t: float) -> tuple[float, float]:
    """Z(t) by the Riemann-Siegel formula and its error bound (value, bound).

    The value is the main sum 2 sum_{n <= N} n^-1/2 cos(theta(t) - t log n),
    N = floor(a), a = sqrt(t/2pi), plus the first correction
    (-1)^(N-1) a^-1/2 Psi(p), Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p,
    p = a - N (Edwards, Riemann's Zeta Function, 1974, ch. 7).  The bound is
    Gabcke's 0.127 t^-3/4.  Where |cos 2pi p| < 1e-6 the quotient Psi is
    not evaluated and the bound is infinite: no sign may be read there.
    """
    if not RS_T_MIN <= t <= T_ABS_MAX:
        raise DomainError(
            f"riemann_siegel_z requires t in [{RS_T_MIN}, {T_ABS_MAX}], got {t}"
        )
    a = math.sqrt(t / _TWO_PI)
    n_main = math.floor(a)
    phases = _rs_theta_rotation(t) - t * _RS_LOG_N[:n_main]
    main = 2.0 * float(np.cos(phases) @ _RS_RSQRT_N[:n_main])
    p = a - n_main
    denom = math.cos(_TWO_PI * p)
    if abs(denom) < 1e-6:
        return main, math.inf
    psi = math.cos(_TWO_PI * (p * p - p - 0.0625)) / denom
    sign = 1.0 if n_main % 2 else -1.0
    return main + sign * psi / math.sqrt(a), RS_BOUND_COEFF * t**-0.75
