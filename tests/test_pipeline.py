"""The compute path runs every contour check, and configurations that
cannot finish inside the evaluation window are rejected up front."""

from __future__ import annotations

import dataclasses
import math

import pytest

from zetastrips import contour, pipeline
from zetastrips.contour import TerminatedAtZero
from zetastrips.errors import DomainError, EscapedStrip, NotSpecial
from zetastrips.gram import gram_point
from zetastrips.pipeline import RunConfig, compute
from zetastrips.zeta import ComplexPoint, EvalParams


def test_compute_checks_boundary_gram_residual(monkeypatch, tmp_path):
    # a theta shifted by pi/2 puts every crossing half-way between Gram points
    real_theta = contour.rs_theta
    monkeypatch.setattr(contour, "rs_theta", lambda t: real_theta(t) + 0.5 * math.pi)
    contour.strip_boundary.cache_clear()  # memoized boundaries skip the check
    with pytest.raises(NotSpecial):
        compute(RunConfig(t_max=100.0, out_dir=tmp_path))


def test_compute_checks_primary_on_critical_line(monkeypatch, tmp_path):
    real_trace = contour._trace_from_launch

    def shifted(k, eval_params):
        path = real_trace(k, eval_params)
        if k % 2:  # primary contours: move the terminal zero off the line
            zero = path.terminal.zero
            path.terminal = TerminatedAtZero(ComplexPoint(zero.sigma + 1e-3, zero.t))
        return path

    monkeypatch.setattr(contour, "_trace_from_launch", shifted)
    with pytest.raises(EscapedStrip):
        compute(RunConfig(t_max=100.0, out_dir=tmp_path))


def test_run_config_rejects_runs_past_the_window():
    # the last boundary traced for t_max = 10992.5 is m = 1213, launched
    # near 10995.51; a higher t_max or m_max needs m = 1214 at 11004.57
    RunConfig(t_max=10992.5)
    RunConfig(m_max=1212)
    with pytest.raises(DomainError):
        RunConfig(t_max=10993.01)
    with pytest.raises(DomainError):
        RunConfig(t_max=1.1e4)
    with pytest.raises(DomainError):
        RunConfig(m_max=1213)


def test_t_max_must_reach_g_1():
    g_1 = gram_point(1).height
    RunConfig(t_max=g_1)
    with pytest.raises(DomainError):
        RunConfig(t_max=math.nextafter(g_1, 0.0))
    with pytest.raises(DomainError):
        RunConfig(t_max=23.0)


def test_cache_from_other_numerics_is_recomputed(monkeypatch, tmp_path):
    config = RunConfig(t_max=30.0, m_max=1, out_dir=tmp_path)
    compute(config)
    assert compute(config).from_cache
    # same RunConfig, different numerics sources
    monkeypatch.setattr(pipeline, "_numerics_digest", lambda: "0" * 64)
    assert not compute(config).from_cache


def test_every_eval_param_enters_the_fingerprint(tmp_path):
    # a field missing here fails the key check, so none is left out silently
    other = {"em_terms_factor": 3.3, "bernoulli_order": 18, "target_abs_error": 1e-9}
    assert set(other) == {f.name for f in dataclasses.fields(EvalParams)}
    base = RunConfig(t_max=100.0, out_dir=tmp_path).cache().fingerprint
    for name, value in other.items():
        params = dataclasses.replace(EvalParams(), **{name: value})
        config = RunConfig(t_max=100.0, out_dir=tmp_path, eval_params=params)
        assert config.cache().fingerprint != base, name
