"""Command surface: compute/analyze/plot/verify, exit codes, cache
behavior, config file handling, and the package's exported names."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import zetastrips
from zetastrips import errors, pipeline
from zetastrips.cli import main
from zetastrips.errors import CacheInvalid
from zetastrips.pipeline import RunConfig, compute


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("run") / "out"
    rc = main(["--t-max", "100", "--out", str(out), "--quiet", "compute"])
    assert rc == 0
    rc = main(["--t-max", "100", "--out", str(out), "--quiet", "analyze"])
    assert rc == 0
    return out


def test_compute_small_run_artifacts(small_run):
    for name in ("gram.csv", "strips.csv", "zeros.csv"):
        assert (small_run / name).exists()
    lines = (small_run / "strips.csv").read_text().strip().splitlines()
    assert lines[0] == pipeline.STRIPS_HEADER
    assert len(lines) - 1 >= 10  # t_max = 100 gives at least 10 strips


def test_analyze_artifacts_and_summary(small_run, capsys):
    rc = main(["--t-max", "100", "--out", str(small_run), "--quiet", "analyze"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "slope=" in captured
    assert "primary_variance=" in captured
    for name in ("fits.json", "deviations.csv", "arches.csv"):
        assert (small_run / name).exists()
    fits = json.loads((small_run / "fits.json").read_text())
    assert set(fits) >= {"bottoms", "tops", "density_log", "density_linear"}
    # every emitted arch obeys the exact height/strip-number ratio
    for line in (small_run / "arches.csv").read_text().strip().splitlines()[1:]:
        p, q, m_c, t_c = line.split(",")
        assert abs(float(t_c) / float(m_c) - 9.06472028) < 1e-7


def test_warm_cache_skips_computation(small_run, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("recomputation attempted with a warm cache")

    monkeypatch.setattr(pipeline, "_boundary_batch", explode)
    rc = main(["--t-max", "100", "--out", str(small_run), "--quiet", "compute"])
    assert rc == 0


def test_compute_is_deterministic_rerun(small_run, tmp_path):
    out2 = tmp_path / "out2"
    rc = main(["--t-max", "100", "--out", str(out2), "--quiet", "compute"])
    assert rc == 0
    for name in ("gram.csv", "strips.csv", "zeros.csv"):
        assert (out2 / name).read_bytes() == (small_run / name).read_bytes()


def test_plot_selected_figures(small_run):
    for fig in (1, 2, 3, 8, 9, 10, 16):
        rc = main(
            ["--t-max", "100", "--out", str(small_run), "--quiet", "plot",
             "--figure", str(fig)]
        )
        assert rc == 0, f"figure {fig}"
        svg = (small_run / f"fig{fig}.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_plot_unknown_figure_is_usage_error(small_run):
    assert main(["--out", str(small_run), "--quiet", "plot", "--figure", "17"]) == 4
    assert main(["--out", str(small_run), "--quiet", "plot", "--figure", "0"]) == 4


def test_figure_range_past_the_census_exits_3(small_run, capsys):
    # t_max = 100 ends at strip 10: no rerun fills strips 140.. at this t_max
    for fig in (5, 6, 7, 13, 14, 15):
        capsys.readouterr()
        rc = main(["--t-max", "100", "--out", str(small_run), "--quiet", "plot",
                   "--figure", str(fig)])
        assert rc == 3, f"figure {fig}"
        assert not (small_run / f"fig{fig}.svg").exists()
        err = capsys.readouterr().err
        assert f"figure {fig} plots strips" in err and "ends at strip 10;" in err
        assert "run compute" not in err


def test_missing_cache_exits_3(tmp_path):
    assert main(["--out", str(tmp_path / "none"), "--quiet", "analyze"]) == 3
    assert (
        main(["--out", str(tmp_path / "none"), "--quiet", "plot", "--figure", "2"])
        == 3
    )


def test_bad_usage_exits_4(tmp_path):
    assert main(["--quiet", "plot"]) == 4  # --figure required
    assert main(["--t-max", "100", "--threads", "0", "--out",
                 str(tmp_path / "o"), "--quiet", "compute"]) == 4  # invalid config


def test_t_max_past_the_window_exits_4(tmp_path):
    out = str(tmp_path / "o")
    assert main(["--t-max", "10993.01", "--out", out, "--quiet", "compute"]) == 4
    assert main(["--m-max", "1213", "--out", out, "--quiet", "compute"]) == 4


def test_t_max_below_the_first_gram_gap_exits_4(tmp_path):
    out = tmp_path / "o"
    assert main(["--t-max", "23", "--out", str(out), "--quiet", "compute"]) == 4
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize(
    "error", sorted(_subclasses(errors.ZetaStripsError), key=lambda c: c.__name__)
)
def test_every_package_error_has_its_exit_code(error, monkeypatch, tmp_path):
    def fail(config):
        raise error("injected")

    monkeypatch.setattr(pipeline, "compute", fail)
    rc = main(["--t-max", "100", "--out", str(tmp_path / "o"), "--quiet", "compute"])
    assert rc == (3 if error in (errors.CacheMissing, errors.CacheInvalid) else 2)


def test_verify_passes_fresh(tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "v"), "--quiet", "verify"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert captured.count("PASS") >= 6
    assert "FAIL" not in captured


def test_verify_reports_corrupted_cache(small_run, capsys):
    cache_dir = small_run / "cache"
    payload = cache_dir / "strips.csv"
    original = payload.read_bytes()
    try:
        payload.write_bytes(original.replace(b"9", b"8", 1))
        rc = main(["--t-max", "100", "--out", str(small_run), "--quiet", "verify"])
        captured = capsys.readouterr().out
        assert rc == 5
        assert "checksum" in captured
        assert "FAIL cache_integrity" in captured
    finally:
        payload.write_bytes(original)


def test_corrupted_cache_triggers_recompute(small_run):
    cache_dir = small_run / "cache"
    payload = cache_dir / "zeros.csv"
    original = payload.read_bytes()
    try:
        payload.write_bytes(b"garbage\n")
        cfg = RunConfig(t_max=100.0, out_dir=small_run, progress=False)
        result = compute(cfg)
        assert not result.from_cache  # corrupted entry was not trusted
        assert payload.read_bytes() == original  # rebuilt to the same bytes
    finally:
        if payload.read_bytes() != original:
            payload.write_bytes(original)


def test_cache_meta_that_is_not_an_object_is_invalid(tmp_path, capsys):
    args = ["--t-max", "30", "--out", str(tmp_path / "o"), "--quiet"]
    assert main(args + ["compute"]) == 0
    meta = tmp_path / "o" / "cache" / "strips.meta.json"
    original = meta.read_bytes()
    meta.write_text("[]", encoding="utf-8")  # valid JSON, not a meta object
    assert main(args + ["analyze"]) == 3
    capsys.readouterr()
    assert main(args + ["compute"]) == 0
    assert "(fresh run," in capsys.readouterr().out  # the entry was not trusted
    assert meta.read_bytes() == original  # rebuilt to the same bytes


def test_every_exported_name_resolves():
    missing = [name for name in zetastrips.__all__ if not hasattr(zetastrips, name)]
    assert missing == []


def test_cache_fingerprint_rejects_other_config(small_run):
    cfg_other = RunConfig(t_max=120.0, out_dir=small_run, progress=False)
    cache = cfg_other.cache()
    with pytest.raises(CacheInvalid):
        cache.check("strips")


def test_config_file_and_flag_precedence(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("t_max = 60\nthreads = 1  # comment\nout = ignored\n")
    out = tmp_path / "flagged"
    rc = main(["--config", str(conf), "--out", str(out), "--quiet", "compute"])
    assert rc == 0
    assert out.exists()  # flag overrode the config file's out
    rc = main(["--config", str(conf), "--out", str(out), "--quiet", "compute"])
    assert rc == 0
    assert "cache" in capsys.readouterr().out  # second run served from cache


def test_config_file_unknown_key(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("tmax = 60\n")
    assert main(["--config", str(conf), "--quiet", "compute"]) == 4


def test_precision_flag_rejects_loose_target(tmp_path):
    # the evaluator's truncation is fixed: precision is neither a flag nor a
    # config key, so a loose target and even the old default 1e-10 exit 4
    out = tmp_path / "o"
    for target in ("1e-3", "1e-10"):
        assert main(["--precision", target, "--out", str(out), "--quiet", "verify"]) == 4
    conf = tmp_path / "run.conf"
    conf.write_text("precision = 1e-10\n")
    assert main(["--config", str(conf), "--out", str(out), "--quiet", "verify"]) == 4
