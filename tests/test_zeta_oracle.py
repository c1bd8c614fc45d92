"""Bit-for-bit oracle for the Euler-Maclaurin evaluator.

``_frozen_zeta_em`` below is the evaluator as it stood with a growable
log n table and a separate tail-bound loop that rebuilt the rising
product before the sum.  The current ``zeta._zeta_em`` must return the
same floats (compared with ``==``, not a tolerance) and raise the same
exception type at every sampled point of the window, at the module's
truncation constants and under a target tighter than the window's worst
bound, where PrecisionLoss fires.
"""

from __future__ import annotations

import math

import numpy as np

from zetastrips import zeta as zeta_mod
from zetastrips.errors import PrecisionLoss
from zetastrips.zeta import (
    EM_TERMS_FACTOR,
    SIGMA_MAX,
    SIGMA_MIN,
    T_ABS_MAX,
    _BERNOULLI_OVER_FACTORIAL,
    _LOG_N,
    _cutoff,
    _zeta_em,
)

N_POINTS = 20_000
# far below the window's worst tail bound (about 5.1e-12 at sigma = -2,
# |t| = 1.1e4), so that about a twentieth of the points raise PrecisionLoss
TIGHT_TARGET = 1e-15

# --- frozen reference ---------------------------------------------------------

_frozen_table = np.log(np.arange(1, 64, dtype=np.float64))


def _frozen_logs(count: int) -> np.ndarray:
    global _frozen_table
    if count > _frozen_table.size:
        size = max(count, 2 * _frozen_table.size)
        _frozen_table = np.log(np.arange(1, size + 1, dtype=np.float64))
    return _frozen_table[:count]


def _frozen_tail_bound(s: complex, n_cut: int, order: int, coeff) -> float:
    prod = s
    for k in range(1, order + 1):
        prod = prod * (s + (2 * k - 1)) * (s + 2 * k)
    npow = n_cut ** (-s.real - 2 * order - 1)
    t_next = abs(coeff[order]) * abs(prod) * npow
    return t_next * abs(s + 2 * order + 1) / (s.real + 2 * order + 1)


def _frozen_zeta_em(s: complex, want_derivative: bool, target: float):
    order = 20
    coeff = _BERNOULLI_OVER_FACTORIAL
    n_cut = math.ceil(3.2 * abs(s.imag) / (2.0 * math.pi)) + 10

    bound = _frozen_tail_bound(s, n_cut, order, coeff)
    if bound > target:
        raise PrecisionLoss("tail bound exceeds target")

    ln = _frozen_logs(n_cut - 1)
    terms = np.exp(-s * ln)
    value = complex(terms.sum())
    deriv = complex(-(ln * terms).sum()) if want_derivative else None

    ln_cut = math.log(n_cut)
    n_pow_ms = complex(np.exp(-s * ln_cut))
    integral = n_pow_ms * n_cut / (s - 1.0)
    half = 0.5 * n_pow_ms
    value += integral + half
    if want_derivative:
        deriv += -ln_cut * integral - n_pow_ms * n_cut / (s - 1.0) ** 2
        deriv += -ln_cut * half

    prod = s
    dprod: complex = 1.0
    npow = n_pow_ms / n_cut
    for k in range(1, order + 1):
        c_k = coeff[k - 1]
        value += c_k * prod * npow
        if want_derivative:
            deriv += c_k * (dprod - ln_cut * prod) * npow
        f1 = s + (2 * k - 1)
        f2 = s + 2 * k
        dprod = dprod * f1 * f2 + prod * (f1 + f2)
        prod = prod * f1 * f2
        npow = npow / (n_cut * n_cut)

    return value, deriv, bound


# --- comparison ---------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


def _same(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    (va, da, ea), (vb, db, eb) = a, b
    if (da is None) != (db is None):
        return False
    same_deriv = da is None or _bits(da) == _bits(db)
    return _bits(va) == _bits(vb) and same_deriv and ea == eb


def _bits(z: complex) -> tuple[float, float, float, float]:
    # == on the parts, plus the signs so that 0.0 and -0.0 are told apart
    return (z.real, z.imag, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))


def _points() -> list[complex]:
    rng = np.random.default_rng(20131)
    sigma = rng.uniform(SIGMA_MIN, SIGMA_MAX, N_POINTS)
    t = rng.uniform(-T_ABS_MAX, T_ABS_MAX, N_POINTS)
    # a fifth of the points near the real axis and the low heights
    low = rng.random(N_POINTS) < 0.2
    t[low] = rng.uniform(-60.0, 60.0, int(low.sum()))
    edges = [complex(sg, tt) for sg in (SIGMA_MIN, 0.5, SIGMA_MAX)
             for tt in (0.0, -T_ABS_MAX, T_ABS_MAX, 14.134725)]
    return edges + [complex(a, b) for a, b in zip(sigma, t)]


def _compare(target: float) -> dict[str, int]:
    """Compare both evaluators over the sampled window; outcome counts."""
    mismatches = []
    counts = {"values": 0, "PrecisionLoss": 0}
    for s in _points():
        for want_derivative in (False, True):
            new = _outcome(_zeta_em, s, want_derivative)
            old = _outcome(_frozen_zeta_em, s, want_derivative, target)
            if not _same(new, old):
                mismatches.append((s, want_derivative, new, old))
            elif old is PrecisionLoss:
                counts["PrecisionLoss"] += 1
            elif not isinstance(old, type):
                counts["values"] += 1
    assert not mismatches, mismatches[:5]
    return counts


def test_evaluator_matches_frozen_reference_bit_for_bit():
    counts = _compare(1e-10)
    assert counts == {"values": 2 * (N_POINTS + 12), "PrecisionLoss": 0}


def test_precision_loss_matches_frozen_reference(monkeypatch):
    monkeypatch.setattr(zeta_mod, "TARGET_ABS_ERROR", TIGHT_TARGET)
    counts = _compare(TIGHT_TARGET)
    # both outcomes are exercised
    assert counts["values"] > N_POINTS
    assert counts["PrecisionLoss"] > 1000


def test_fixed_log_table_equals_the_grown_table():
    largest = _cutoff(T_ABS_MAX, EM_TERMS_FACTOR)
    assert _LOG_N.size == largest - 1 == 5612
    assert np.array_equal(_LOG_N.imag, np.zeros(_LOG_N.size))
    assert np.array_equal(_LOG_N.real, _frozen_logs(largest - 1))
