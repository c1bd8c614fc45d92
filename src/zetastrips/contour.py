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
1990): ``_correct`` is the one place where a step settles or fails.  The
step halves at two sites only: where ``_correct`` fails, and after a point
with |zeta| < 10 * ZERO_RADIUS.  It is additionally clamped to an eighth
of the Newton distance |zeta| / |zeta'| so the trace cannot step over an
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
which a 2-D Newton pins to 16 eps, so it traces at the step ceiling 0.4
(at 0.8 the primary zeros of strips 516 and 885 move).  A boundary
contour (even k) traces at the default step STEP = 0.02: its crossing,
which ``strip_boundary`` solves by a 1-D Newton seeded from the chord
between the samples either side of sigma = 1/2, stopped at
|update| < 8 eps t, moves by a few ulps on a coarser path; at step 0.1
the 12th digit of 12 of the 1102 strip widths below 1e4 changes.  Every
trace, first try or parity retry, widens to the ceiling once it reaches
sigma <= 1/2: from there a boundary only has to reach SIGMA_MIN without
a zero, and min |zeta| is read over sigma >= 1/2.
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
    WindowExceeded,
)
from .gram import default_table
from .zeta import ComplexPoint, zeta_with_derivative

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
_MAX_STEP = 0.4
_CAPTURE_DIST = 0.05
_EPS = sys.float_info.epsilon


@dataclass
class ContourPath:
    """A traced Im(zeta) = 0 curve.

    ``samples`` has one row per accepted point: (sigma, t, Re zeta,
    Im zeta).  ``zero`` is the terminal zero, or None when the curve
    reached SIGMA_MIN.
    """

    samples: np.ndarray
    zero: ComplexPoint | None


def _line_root(sigma: float, t: float) -> tuple[float, complex]:
    """(root t of Im zeta(sigma + it) = 0 by 1-D Newton from t, stopped once
    the update is below 8 eps t; zeta at the last iterate, within that
    update of the root)."""
    for _ in range(20):
        z, dz = zeta_with_derivative(complex(sigma, t))
        step = z.imag / dz.real  # d/dt Im zeta = Re zeta'
        t -= step
        if abs(step) < 8.0 * _EPS * max(1.0, abs(t)):
            return t, z
    raise ConvergenceFailure(f"Newton on sigma = {sigma} did not settle near t = {t}")


def launch_point(k: int) -> ComplexPoint:
    """Newton-corrected root of Im zeta(SIGMA_START + it) = 0 seeded at t = k pi / ln 2;
    Re zeta > 0 there, as Re zeta >= 2 - zeta(5) > 0.96 all along that line."""
    if k < 2:
        raise DomainError(f"launch index k = {k} < 2")
    seed = k * math.pi / _LN2
    t, _ = _line_root(SIGMA_START, seed)
    if abs(t - seed) > 0.5 * math.pi / _LN2:
        raise SeedDrift(f"launch for k = {k} drifted from {seed} to {t}")
    return ComplexPoint(SIGMA_START, t)


def _newton_zero(s: complex, z: complex, dz: complex) -> complex | None:
    """2-D Newton on zeta = 0 from s, z = zeta(s) and dz = zeta'(s); None when
    60 updates, or an iterate that leaves the evaluation window, do not settle
    it.  Converged means the update has shrunk to a few ulps of |s|."""
    for _ in range(60):
        if dz == 0:
            return None
        delta = z / dz
        s = s - delta
        if abs(delta) < 16.0 * _EPS * max(1.0, abs(s)):
            return s
        try:
            z, dz = zeta_with_derivative(s)
        except WindowExceeded:
            return None
    return None


def _correct(p: complex) -> tuple[complex, complex, complex] | None:
    """(p, zeta(p), zeta'(p)) once at most four gradient-Newton steps on
    Im zeta bring |Im zeta| within NEWTON_TOL * max(1, |zeta|); None when
    they do not, a vanishing gradient included."""
    for _ in range(4):
        z, dz = zeta_with_derivative(p)
        if abs(z.imag) < NEWTON_TOL * max(1.0, abs(z)):
            return p, z, dz
        g2 = dz.imag * dz.imag + dz.real * dz.real
        if g2 == 0.0:
            return None
        delta = z.imag / g2
        p = complex(p.real - delta * dz.imag, p.imag - delta * dz.real)
    return None


def trace(start: ComplexPoint, step: float = STEP) -> ContourPath:
    """Continue the Im(zeta) = 0 curve through ``start`` leftward, toward
    the critical strip, until it ends at a zero or reaches SIGMA_MIN.

    ``step`` is the step the controller starts at and grows back to, at
    most _MAX_STEP, until the curve reaches sigma <= 1/2; from there both
    are _MAX_STEP.  Raises StepCollapse / MaxSteps on the corresponding
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
    zero: ComplexPoint | None = None
    prev_tangent = complex(-1.0, 0.0)  # leftward
    h = step
    easy = 0
    capture_dist = _CAPTURE_DIST

    for _ in range(MAX_STEPS):
        if dz == 0:
            raise StepCollapse(f"vanishing gradient at {s} (zeta'(s) = 0?)")
        tangent = complex(dz.real, -dz.imag) / abs(dz)
        if tangent.real * prev_tangent.real + tangent.imag * prev_tangent.imag < 0.0:
            tangent = -tangent

        newton_dist = abs(z) / abs(dz)
        # capture: zeta is real on the contour, so the Newton step -z/dz is
        # parallel to the tangent; a converged 2-D Newton that lands close
        # ahead along it is the terminal zero of this contour
        if newton_dist < capture_dist:
            loc = _newton_zero(s, z, dz)
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
        while (hit := _correct(s + h * tangent)) is None:
            h *= 0.5
            easy = 0
            if h < _MIN_STEP:
                raise StepCollapse(
                    f"step collapsed below {_MIN_STEP} near {s}; possible "
                    "multiple zero or contour intersection"
                )
        prev_s, prev_z, prev_tangent = s, z, tangent
        s, z, dz = hit

        # terminal zero: an on-contour zero passed between accepted points
        # (Re zeta flips sign; Newton from the midpoint), or |zeta| is
        # within ZERO_RADIUS (Newton from s)
        flipped = prev_z.real * z.real < 0.0
        if flipped or abs(z) < ZERO_RADIUS:
            if flipped:
                s = 0.5 * (prev_s + s)
                z, dz = zeta_with_derivative(s)
            if (loc := _newton_zero(s, z, dz)) is None:
                raise StepCollapse(f"terminal zero near {s} but Newton failed")
            zero = ComplexPoint(loc.real, loc.imag)
            break

        # left of the critical line the path decides no emitted bit
        if step < _MAX_STEP and s.real <= 0.5:
            step = h = _MAX_STEP

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

    return ContourPath(np.array(rows, dtype=np.float64), zero)


def _trace_from_launch(k: int) -> ContourPath:
    """Trace leftward from launch index k, retrying at a finer step when
    the terminal zero, or its absence, contradicts the launch parity.

    Even k must cross the critical line and reach SIGMA_MIN; odd k must
    terminate at a zero.  Odd k contribute only that zero, so they trace
    at the step ceiling _MAX_STEP; even k start at STEP.  A contradiction
    at the starting step means the trace hopped branches inside a
    close-pair squeeze; the retry tightens the step to a quarter and then
    a sixteenth (0.1 and 0.025 for odd k), the same way the zero scan
    refines its grid.  Like every trace, a retry widens to the ceiling
    left of sigma = 1/2.  A contradiction at the finest step raises:
    NotSpecial for even k, NoTerminalZero for odd k.
    """
    start = launch_point(k)
    expect_zero = bool(k % 2)
    step = _MAX_STEP if expect_zero else STEP
    for shrink in (1.0, 4.0, 16.0):
        path = trace(start, step / shrink)
        if (path.zero is not None) == expect_zero:
            return path
    if expect_zero:
        raise NoTerminalZero(f"primary contour k = {k} reached sigma = {SIGMA_MIN} without a zero")
    raise NotSpecial(
        f"boundary contour k = {k} terminated at a zero {path.zero}; strip structure falsified"
    )


@lru_cache(maxsize=4096)
def strip_boundary(m: int, /) -> tuple[float, int, float]:
    """(crossing height, Gram index n, min |zeta| from launch to crossing)
    of the m-th strip-boundary contour, memoized because neighbouring
    strips share a boundary; ``m`` is positional-only, so every call
    shares one entry.

    Asserts that the contour reaches SIGMA_MIN without meeting a zero, and
    crosses the critical line at a Gram point g_n where Re zeta > 0 (b_n > 0,
    read from the value the crossing's Newton evaluated at its last iterate,
    within 8 eps t of the crossing); each failure raises NotSpecial.
    Clearance from zeros is ``trace``'s terminal-zero rule: a point with
    |zeta| < ZERO_RADIUS ends the trace at a zero, so every sample it keeps
    has |zeta| >= ZERO_RADIUS, and min |zeta| is the reported margin, not
    a second check.  The crossing is a 1-D Newton seeded from the chord
    into the path's first sample at sigma <= 1/2, which a path from
    SIGMA_START to SIGMA_MIN always has.
    This is the package's one check that a crossing is a Gram point:
    ``GramTable.index_near`` within gram._BOUNDARY_TOL = 5e-7 in t.
    """
    if m < 1:
        raise DomainError(f"strip boundary index m = {m} < 1")
    samples = _trace_from_launch(2 * m).samples
    right = samples[samples[:, 0] >= 0.5]
    min_abs = float(np.min(np.hypot(right[:, 2], right[:, 3])))
    i = int(np.argmax(samples[:, 0] <= 0.5))
    (s0, t0), (s1, t1) = samples[i - 1 : i + 1, :2].tolist()
    crossing, z = _line_root(0.5, t0 + (0.5 - s0) / (s1 - s0) * (t1 - t0))
    if not z.real > 0.0:
        raise NotSpecial(f"boundary {m} crosses at {crossing}, where Re zeta = {z.real} <= 0")
    n = default_table().index_near(crossing)
    if n is None:
        raise NotSpecial(f"boundary {m} crosses at {crossing}, which is no Gram point")
    return crossing, n, min_abs


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
    zero = _trace_from_launch(2 * m + 1).zero
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
