"""Predictor-corrector tracing of Im(zeta(s)) = 0 level curves.

Curves are launched on the vertical line sigma = SIGMA_START, where
zeta(s) = 1 + 2^-s + ... makes the branch structure unambiguous: the
contour meeting sigma = +infinity at height k pi / ln 2 is seeded at that
height and Newton-corrected.  Even k are strip boundaries (they cross the
critical line at special Gram points and continue to SIGMA_MIN); odd k
are primary contours (they terminate at the strip's primary zero).
The census traces every contour leftward with the fixed constants below;
only the step is an argument of ``trace``.

The gradient of Im zeta in the (sigma, t) plane is (Im zeta', Re zeta') by
Cauchy-Riemann; the predictor steps along the unit tangent perpendicular
to it and the corrector is a Newton projection back onto the level set.

Step control (after Allgower & Georg, Numerical Continuation Methods,
1990): the step halves when the corrector struggles or when
|zeta| < 10 * ZERO_RADIUS, and is additionally clamped to an eighth of the
Newton distance |zeta| / |zeta'| so the trace cannot step over an
on-contour zero (where Re zeta flips sign); a sign-flip backstop catches
the remaining pathological case.  A terminal zero is declared when
|zeta| < ZERO_RADIUS and a full two-dimensional Newton on zeta
converges; the Newton result is the reported zero.

Newton capture: the clamp shrinks the final approach to a zero
geometrically, so the trace tries the two-dimensional Newton as
soon as the Newton distance drops below 0.05, and again each time it has
halved since the last rejected try.  zeta is real on the contour, so the
Newton step -zeta/zeta' runs along the tangent; the result is the
terminal zero only if Newton converged, it lies within twice the Newton
distance, and it lies ahead along the tangent (within about 26 degrees).
Otherwise the trace carries on unchanged.  No boundary contour below
t = 1e4 comes within the capture distance of a zero.

Step sizes: a primary contour (odd k) contributes only its terminal zero,
so it traces at the step ceiling 0.1.  A boundary contour (even k) keeps
the default step STEP = 0.02: its crossing is a 1-D Newton seeded from the
chord between the accepted points either side of sigma = 1/2, stopped at
|update| < 8 eps t, so a coarser path moves the crossing by a few ulps;
at step 0.1 the 12th digit of 12 of the 1102 strip widths below 1e4
changes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConvergenceFailure,
    DomainError,
    EscapedStrip,
    MaxSteps,
    NoTerminalZero,
    NotSpecial,
    SeedDrift,
    StepCollapse,
)
from .zeta import ComplexPoint, rs_theta, zeta_with_derivative

# the one way the census traces: launch line, left stop, default step,
# corrector tolerance on |Im zeta|, terminal-zero radius, step budget
SIGMA_START = 5.0
SIGMA_MIN = 0.0
STEP = 0.02
NEWTON_TOL = 1e-10
ZERO_RADIUS = 1e-4
MAX_STEPS = 10**6

_LN2 = math.log(2.0)
_MIN_STEP = 1e-6
_MAX_STEP = 0.1
_CAPTURE_DIST = 0.05
_EPS = sys.float_info.epsilon


@dataclass
class ContourPath:
    """A traced Im(zeta) = 0 curve.

    ``samples`` has one row per accepted point: (sigma, t, Re zeta,
    Im zeta).  ``zero`` is the terminal zero, or None when the curve
    reached SIGMA_MIN.  ``crossing_t`` is the height at which the curve
    crosses sigma = 1/2, when it does.
    """

    samples: np.ndarray
    zero: ComplexPoint | None
    crossing_t: float | None


def launch_point(k: int) -> ComplexPoint:
    """Newton-corrected root of Im zeta(SIGMA_START + it) = 0 seeded at
    t = k pi / ln 2; Re zeta > 0 there."""
    if k < 2:
        raise DomainError(f"launch index k = {k} < 2")
    sigma = SIGMA_START
    seed = k * math.pi / _LN2
    t = seed
    for _ in range(12):
        z, dz = zeta_with_derivative(complex(sigma, t))
        step = z.imag / dz.real  # d/dt Im zeta = Re zeta'
        t -= step
        if abs(step) < 8.0 * _EPS * max(1.0, abs(t)):
            break
    else:
        raise ConvergenceFailure(f"launch Newton for k = {k} did not settle")
    if abs(t - seed) > 0.5 * math.pi / _LN2:
        raise SeedDrift(f"launch for k = {k} drifted from {seed} to {t}")
    z, _ = zeta_with_derivative(complex(sigma, t))
    if z.real <= 0.0:
        raise SeedDrift(f"launch for k = {k} landed on Re zeta <= 0 branch")
    return ComplexPoint(sigma, t)


def _newton_zero(s: complex) -> complex | None:
    """Two-dimensional Newton on zeta(s) = 0; None when it does not settle.
    Converged means the update has shrunk to a few ulps of |s|."""
    for _ in range(60):
        z, dz = zeta_with_derivative(s)
        if dz == 0:
            return None
        delta = z / dz
        s = s - delta
        if abs(delta) < 16.0 * _EPS * max(1.0, abs(s)):
            return s
    return None


def _cross_line(sigma_line: float, a: tuple[float, float], b: tuple[float, float]) -> float:
    """Height where the contour crosses the vertical line sigma = sigma_line,
    by 1-D Newton in t seeded from the chord between accepted points."""
    frac = (sigma_line - a[0]) / (b[0] - a[0])
    t = a[1] + frac * (b[1] - a[1])
    for _ in range(20):
        z, dz = zeta_with_derivative(complex(sigma_line, t))
        step = z.imag / dz.real
        t -= step
        if abs(step) < 8.0 * _EPS * max(1.0, abs(t)):
            return t
    raise ConvergenceFailure(f"line crossing at sigma = {sigma_line} did not settle")


def trace(start: ComplexPoint, step: float = STEP) -> ContourPath:
    """Continue the Im(zeta) = 0 curve through ``start`` leftward, toward
    the critical strip, until it ends at a zero or reaches SIGMA_MIN.

    ``step`` is the step the controller starts at and grows back to, at
    most _MAX_STEP.  Raises StepCollapse / MaxSteps on the corresponding
    failures; these would falsify the strip structure and are never
    downgraded.
    """
    if not 0.0 < step <= _MAX_STEP:
        raise DomainError(f"step {step} outside (0, {_MAX_STEP}]")
    s = complex(start.sigma, start.t)
    z, dz = zeta_with_derivative(s)
    if abs(z.imag) > NEWTON_TOL * max(1.0, abs(z)):
        raise DomainError(f"trace start {start} is not on Im zeta = 0")

    rows = [(s.real, s.imag, z.real, z.imag)]
    crossing_t: float | None = None
    zero: ComplexPoint | None = None
    prev_tangent: complex | None = None
    h = step
    easy = 0
    capture_dist = _CAPTURE_DIST

    for _ in range(MAX_STEPS):
        grad = complex(dz.imag, dz.real)  # grad of Im zeta in (sigma, t)
        if abs(grad) == 0.0:
            raise StepCollapse(f"vanishing gradient at {s} (zeta'(s) = 0?)")
        tangent = complex(dz.real, -dz.imag) / abs(dz)
        if prev_tangent is None:
            if tangent.real > 0:
                tangent = -tangent
        elif (
            tangent.real * prev_tangent.real + tangent.imag * prev_tangent.imag
        ) < 0.0:
            tangent = -tangent

        newton_dist = abs(z) / abs(dz)
        # capture: zeta is real on the contour, so the Newton step -z/dz is
        # parallel to the tangent; a converged 2-D Newton that lands close
        # ahead along it is the terminal zero of this contour
        if newton_dist < capture_dist:
            loc = _newton_zero(s)
            if loc is not None:
                ahead = loc - s
                if abs(ahead) <= 2.0 * newton_dist and (
                    ahead * tangent.conjugate()
                ).real > 0.9 * abs(ahead):
                    zero = ComplexPoint(loc.real, loc.imag)
                    break
            capture_dist = 0.5 * newton_dist

        # keep each step well inside the Newton distance to the nearest
        # zero: adjacent Im = 0 branches squeeze to that separation near
        # close zero pairs, and larger steps can hop across
        if newton_dist < 8.0 * h:
            h = max(newton_dist / 8.0, _MIN_STEP)

        # predictor + corrector, halving until the corrector settles
        while True:
            p = s + h * tangent
            zp = dzp = None
            accepted = False
            for _ in range(4):
                zp, dzp = zeta_with_derivative(p)
                if abs(zp.imag) < NEWTON_TOL * max(1.0, abs(zp)):
                    accepted = True
                    break
                g = complex(dzp.imag, dzp.real)
                g2 = g.real * g.real + g.imag * g.imag
                if g2 == 0.0:
                    break
                delta = zp.imag / g2
                p = complex(p.real - delta * g.real, p.imag - delta * g.imag)
            if accepted:
                break
            h *= 0.5
            easy = 0
            if h < _MIN_STEP:
                raise StepCollapse(
                    f"step collapsed below {_MIN_STEP} near {s}; possible "
                    "multiple zero or contour intersection"
                )

        assert zp is not None and dzp is not None
        prev_s, prev_z = s, z
        s, z, dz = p, zp, dzp
        prev_tangent = tangent

        # on-contour zero passed between accepted points: Re flips sign
        if prev_z.real * z.real < 0.0:
            mid = 0.5 * (prev_s + s)
            loc = _newton_zero(mid)
            if loc is None:
                raise StepCollapse(f"Re zeta sign flip near {mid} but Newton failed")
            zero = ComplexPoint(loc.real, loc.imag)
            break

        if abs(z) < ZERO_RADIUS:
            loc = _newton_zero(s)
            if loc is None:
                raise StepCollapse(f"|zeta| < ZERO_RADIUS near {s} but Newton failed")
            zero = ComplexPoint(loc.real, loc.imag)
            break

        if crossing_t is None and (prev_s.real - 0.5) * (s.real - 0.5) <= 0.0:
            crossing_t = _cross_line(0.5, (prev_s.real, prev_s.imag), (s.real, s.imag))

        rows.append((s.real, s.imag, z.real, z.imag))
        if s.real <= SIGMA_MIN:
            break

        if abs(z) < 10.0 * ZERO_RADIUS:
            h = max(0.5 * h, _MIN_STEP)
            easy = 0
        else:
            easy += 1
            if easy >= 5:
                h = min(step, 2.0 * h)
                easy = 0
    else:
        raise MaxSteps(f"trace from {start} exceeded {MAX_STEPS} steps")

    return ContourPath(np.array(rows, dtype=np.float64), zero, crossing_t)


def _trace_from_launch(k: int) -> ContourPath:
    """Trace leftward from launch index k, retrying at a finer step when
    the terminal zero, or its absence, contradicts the launch parity.

    Even k must cross the critical line and reach SIGMA_MIN; odd k must
    terminate at a zero.  Odd k contribute only that zero, so they trace
    at the step ceiling; even k keep STEP.  A contradiction at
    the starting step means the trace hopped branches inside a close-pair
    squeeze; the retry tightens the step the same way the zero scan
    refines its grid.  A contradiction that survives the finest step is
    surfaced by the callers.
    """
    start = launch_point(k)
    expect_zero = bool(k % 2)
    step = _MAX_STEP if expect_zero else STEP
    path = trace(start, step)
    for shrink in (4.0, 16.0):
        if (path.zero is not None) == expect_zero:
            break
        path = trace(start, step / shrink)
    return path


@lru_cache(maxsize=4096)
def strip_boundary(m: int, /) -> tuple[float, float]:
    """(crossing height, min |zeta| from launch to crossing) of the m-th
    strip-boundary contour, memoized because neighbouring strips share a
    boundary; ``m`` is positional-only, so every call shares one entry.

    Asserts that the contour reaches SIGMA_MIN without meeting a zero,
    stays clear of zeros between launch and crossing, and crosses the
    critical line at a Gram point (Re zeta > 0 there by construction of
    the launch branch); any failure raises NotSpecial.
    """
    if m < 1:
        raise DomainError(f"strip boundary index m = {m} < 1")
    path = _trace_from_launch(2 * m)
    if path.zero is not None:
        raise NotSpecial(
            f"boundary contour k = {2 * m} terminated at a zero "
            f"{path.zero}; strip structure falsified"
        )
    if path.crossing_t is None:
        raise NotSpecial(f"boundary contour k = {2 * m} never crossed sigma = 1/2")
    right = path.samples[path.samples[:, 0] >= 0.5]
    min_abs = float(np.min(np.hypot(right[:, 2], right[:, 3])))
    if min_abs <= ZERO_RADIUS:
        raise NotSpecial(
            f"boundary contour k = {2 * m} passed within {min_abs:.2e} of a zero"
        )
    crossing = path.crossing_t
    residual = rs_theta(crossing) / math.pi
    if abs(residual - round(residual)) > 1e-6:
        raise NotSpecial(
            f"boundary crossing {crossing} is not a Gram point "
            f"(theta/pi residual {residual - round(residual):.2e})"
        )
    return crossing, min_abs


def special_gram_point(m: int) -> float:
    """Critical-line crossing height of the m-th strip-boundary contour,
    checked by ``strip_boundary``."""
    return strip_boundary(m)[0]


def primary_zero_of_strip(m: int, *, check_containment: bool = True) -> ComplexPoint:
    """Terminal zero of the contour launched at height (2m+1) pi / ln 2.

    A contour that reaches SIGMA_MIN without a zero raises NoTerminalZero.
    The zero must lie on the critical line to 1e-6 and strictly inside
    strip m; violations raise EscapedStrip.
    """
    if m < 1:
        raise DomainError(f"strip index m = {m} < 1")
    path = _trace_from_launch(2 * m + 1)
    zero = path.zero
    if zero is None:
        raise NoTerminalZero(
            f"primary contour k = {2 * m + 1} reached sigma = {SIGMA_MIN} without a zero"
        )
    if abs(zero.sigma - 0.5) > 1e-6:
        raise EscapedStrip(
            f"primary zero of strip {m} at sigma = {zero.sigma} is off the critical line"
        )
    if check_containment:
        bottom = special_gram_point(m)
        top = special_gram_point(m + 1)
        if not bottom < zero.t < top:
            raise EscapedStrip(
                f"primary zero height {zero.t} outside strip {m} = [{bottom}, {top})"
            )
    return zero
