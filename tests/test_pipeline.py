"""The compute path runs every contour check, and configurations that
cannot finish inside the evaluation window are rejected up front."""

from __future__ import annotations

import math

import pytest

from zetastrips import contour, pipeline
from zetastrips.errors import DomainError, EscapedStrip, NotSpecial
from zetastrips.gram import gram_point
from zetastrips.pipeline import RunConfig, compute
from zetastrips.zeta import ComplexPoint


def test_compute_checks_boundary_gram_residual(monkeypatch, tmp_path):
    # a theta shifted by pi/2 puts every crossing half-way between Gram points
    real_theta = contour.rs_theta
    monkeypatch.setattr(contour, "rs_theta", lambda t: real_theta(t) + 0.5 * math.pi)
    contour.strip_boundary.cache_clear()  # memoized boundaries skip the check
    with pytest.raises(NotSpecial):
        compute(RunConfig(t_max=100.0, out_dir=tmp_path))


def test_compute_checks_primary_on_critical_line(monkeypatch, tmp_path):
    real_trace = contour._trace_from_launch

    def shifted(k):
        path = real_trace(k)
        if k % 2:  # primary contours: move the terminal zero off the line
            path.zero = ComplexPoint(path.zero.sigma + 1e-3, path.zero.t)
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
    g_1 = gram_point(1)
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


def test_boundary_batch_that_falls_short_of_t_max_raises(monkeypatch, tmp_path):
    # t_max sits 2.6 below boundary 12's launch height, so the batch ends at
    # m = 12; crossings 2.8 below m * SLOPE leave that last one under t_max
    t_max = 12 * pipeline.SLOPE - 2.6
    assert pipeline._boundary_estimate(t_max, None) == 12
    traced = []

    def short(m):
        traced.append(m)
        return m * pipeline.SLOPE - 2.8, 1.0

    monkeypatch.setattr(pipeline, "strip_boundary", short)
    with pytest.raises(NotSpecial, match="boundary 12 "):
        compute(RunConfig(t_max=t_max, out_dir=tmp_path))
    assert traced == list(range(1, 13))  # one batch, no extension
