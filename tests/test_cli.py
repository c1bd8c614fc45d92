"""Command surface: compute/analyze/plot/verify, exit codes, cache
behavior, config file handling, and the package's exported names."""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import zetastrips
from zetastrips import cli, contour, errors, pipeline
from zetastrips.cache import KINDS, Cache
from zetastrips.cli import EXIT_VERIFY, main
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
    for row in csv.DictReader((small_run / "arches.csv").read_text().splitlines()):
        assert abs(float(row["t_center"]) / float(row["m_center"]) - 9.06472028) < 1e-7


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
    assert not (tmp_path / "none").exists()


def test_out_that_cannot_be_made_fails_before_the_census(tmp_path, monkeypatch, capsys):
    blocked = tmp_path / "blocked"
    blocked.touch()

    def explode(*args, **kwargs):
        raise AssertionError("a contour was traced before the directories were made")

    monkeypatch.setattr(contour, "_trace_from_launch", explode)
    rc = main(["--t-max", "300", "--out", str(blocked), "--quiet", "compute"])
    assert rc == 1
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "figure, name, data",
    [
        (8, "strips.csv", b"\xff"),  # not UTF-8
        (2, "strips.csv", b"m,bottom\n1,abc\n"),  # a cell that is not a number
        (10, "strips.csv", b"m,n_zeros\n1,1\n"),  # no width column
        (2, "strips.csv", b"m,bottom\n1,9.5,2\n"),  # a row with a cell the header lacks
        (3, "zeros.csv", b"\xff"),  # not UTF-8
        (2, "strips.csv", b"m,bottom\n"),  # a header but no data rows
        (1, "gram.csv", b"n,g,gap,gap_ratio,gap_ratio_geo\n"),
    ],
)
def test_malformed_figure_input_exits_3(figure, name, data, small_run, tmp_path, capsys):
    out = tmp_path / "o"
    shutil.copytree(small_run, out, ignore=shutil.ignore_patterns("cache", "*.svg"))
    (out / name).write_bytes(data)
    rc = main(["--t-max", "100", "--out", str(out), "--quiet", "plot", "--figure", str(figure)])
    assert rc == 3
    assert f"{name} in {out} is malformed" in capsys.readouterr().err
    assert not (out / f"fig{figure}.svg").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_figure_input_exits_3(value, small_run, tmp_path, capsys):
    # a strips.csv cell that parses as a float but is no finite number: exit 3
    # naming the file, and no SVG
    out = tmp_path / "o"
    shutil.copytree(small_run, out, ignore=shutil.ignore_patterns("cache", "*.svg"))
    args = ["--t-max", "100", "--out", str(out), "--quiet", "plot", "--figure", "2"]
    strips = out / "strips.csv"
    text = strips.read_text()
    header, first, *rest = text.splitlines()
    cells = dict(zip(header.split(","), first.split(",")))
    cells["bottom"] = value
    strips.write_text("\n".join([header, ",".join(cells.values()), *rest]) + "\n")
    assert main(args) == 3
    assert f"strips.csv in {out} is malformed" in capsys.readouterr().err
    assert not (out / "fig2.svg").exists()


def _set_cell(text: str, row: int, column: str, value: str) -> str:
    """text, a CSV, with the cell of data row ``row`` (1 the first, -1 the
    last) in ``column`` set to value."""
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "figure, cells",
    [
        (9, {(1, "width"): "0"}),  # a width that is not top - bottom
        (2, {(1, "bottom"): "1e308", (2, "bottom"): "-1e308"}),  # bottoms that fit no strip
        (9, {(1, "m"): "-1"}),  # an m that is not the row's
    ],
)
def test_refused_strips_cells_exit_3(figure, cells, small_run, tmp_path, capsys):
    # every cell parses as a finite number, but the strips parser refuses the
    # table, as compute does: exit 3 naming the file, and no SVG
    out = tmp_path / "o"
    shutil.copytree(small_run, out, ignore=shutil.ignore_patterns("cache", "*.svg"))
    text = (out / "strips.csv").read_text()
    for (row, column), value in cells.items():
        text = _set_cell(text, row, column, value)
    (out / "strips.csv").write_text(text)
    rc = main(["--t-max", "100", "--out", str(out), "--quiet", "plot", "--figure", str(figure)])
    assert rc == 3
    assert f"strips.csv in {out} is malformed" in capsys.readouterr().err
    assert not (out / f"fig{figure}.svg").exists()


def test_undrawable_figure_input_exits_3(small_run, tmp_path, capsys):
    # a gram.csv that parses, but whose every ratio cell is 0, leaves the log
    # axes no point to show: exit 3 naming the figure and the directory, and no SVG
    out = tmp_path / "o"
    shutil.copytree(small_run, out, ignore=shutil.ignore_patterns("cache", "*.svg"))
    text = (out / "gram.csv").read_text()
    for row in range(2, len(text.splitlines())):  # row 1, n = -1, has no ratio
        for column in ("gap_ratio", "gap_ratio_geo"):
            text = _set_cell(text, row, column, "0")
    (out / "gram.csv").write_text(text)
    rc = main(["--t-max", "100", "--out", str(out), "--quiet", "plot", "--figure", "1"])
    assert rc == 3
    assert f"figure 1 cannot be drawn from the inputs in {out}" in capsys.readouterr().err
    assert not (out / "fig1.svg").exists()


def test_figures_need_only_compute(small_run, tmp_path):
    # without analyze's outputs every figure the census covers is drawn, and
    # each SVG is byte for byte the one drawn beside them
    out = tmp_path / "o"
    shutil.copytree(small_run, out, ignore=shutil.ignore_patterns("*.svg"))
    args = ["--t-max", "100", "--out", str(out), "--quiet", "plot", "--figure"]
    figures = (1, 2, 3, 8, 9, 10, 11, 16)
    drawn = {}
    for figure in figures:
        assert main(args + [str(figure)]) == 0
        drawn[figure] = (out / f"fig{figure}.svg").read_bytes()
        (out / f"fig{figure}.svg").unlink()
    for name in ("fits.json", "deviations.csv", "arches.csv"):
        (out / name).unlink()
    for figure in figures:
        assert main(args + [str(figure)]) == 0, f"figure {figure}"
        assert (out / f"fig{figure}.svg").read_bytes() == drawn[figure], f"figure {figure}"


def test_empty_cell_outside_the_gap_columns_is_malformed(small_run, tmp_path, capsys):
    # gram.csv's row -1 leaves its gap columns empty; any other empty cell,
    # in a gap column or not, is malformed
    out = tmp_path / "o"
    shutil.copytree(small_run, out, ignore=shutil.ignore_patterns("cache", "*.svg"))
    strips = out / "strips.csv"
    strips.write_text(_set_cell(strips.read_text(), 3, "bottom", ""))
    args = ["--t-max", "100", "--out", str(out), "--quiet", "plot", "--figure"]
    assert main(args + ["2"]) == 3
    assert f"strips.csv in {out} is malformed" in capsys.readouterr().err
    assert not (out / "fig2.svg").exists()
    assert main(args + ["1"]) == 0
    (out / "fig1.svg").unlink()
    gram = out / "gram.csv"
    gram.write_text(_set_cell(gram.read_text(), 5, "gap_ratio", ""))  # row 5 is n = 3
    assert main(args + ["1"]) == 3
    err = capsys.readouterr().err
    assert f"gram.csv in {out} is malformed" in err
    assert "nan" not in err.replace(str(out), "")  # no row that compute would not write
    assert not (out / "fig1.svg").exists()


@pytest.mark.parametrize(
    "row, column, value",
    [
        (5, "g", "nan"), (-1, "g", "inf"), (2, "g", "9"), (5, "n", "4"), (1, "n", "0"),
        # row 4 is n = 2; row 1, n = -1, has no gap
        (4, "gap", "nan"), (-1, "gap_ratio", "inf"), (4, "gap_ratio_geo", "-inf"), (1, "gap", "0"),
    ],
)
def test_warm_compute_checks_the_cached_gram(row, column, value, small_run, tmp_path, capsys):
    # a validly signed gram payload whose n column skips, whose g column is
    # not finite and ascending, or whose gap cells are not empty in row -1 and
    # finite below it: compute exits 3 without rewriting gram.csv, and verify
    # fails the cache.  An n cell and row -1's gap cells are read as compute
    # writes the row, so they fail the row's rendering, not a column rule
    message = f"gram table: row {row} reads " if column == "n" or row == 1 else "gram table: the "
    out = tmp_path / "o"
    shutil.copytree(small_run, out)
    cache = RunConfig(t_max=100.0, out_dir=out).cache()
    cache.store("gram", _set_cell(cache.load("gram"), row, column, value))
    before = (out / "gram.csv").read_bytes()
    args = ["--t-max", "100", "--out", str(out), "--quiet"]
    assert main(args + ["compute"]) == 3
    assert message in capsys.readouterr().err
    assert (out / "gram.csv").read_bytes() == before
    assert main(args + ["verify"]) == EXIT_VERIFY
    assert f"FAIL cache_integrity: CacheInvalid: {message}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "row, column, value, message",
    [
        (-1, "min_abs_zeta", "nan", "a min_abs_zeta cell is not finite"),
        (1, "min_abs_zeta", "-inf", "a min_abs_zeta cell is not finite"),
        (1, "m", "0", "row 1 reads '0,"),
        (-1, "m", "-1", "row 11 reads '-1,"),
    ],
)
def test_cached_boundaries_are_checked_by_every_reader(
    row, column, value, message, small_run, tmp_path, capsys
):
    # a validly signed boundaries payload with a margin that is not finite,
    # in any row, or an m cell that is not the row's: compute and analyze
    # exit 3, verify fails its cache check alone
    out = tmp_path / "o"
    shutil.copytree(small_run, out)
    cache = RunConfig(t_max=100.0, out_dir=out).cache()
    cache.store("boundaries", _set_cell(cache.load("boundaries"), row, column, value))
    args = ["--t-max", "100", "--out", str(out), "--quiet"]
    for command in ("compute", "analyze"):
        assert main(args + [command]) == 3
        assert f"boundaries table: {message}" in capsys.readouterr().err
    assert main(args + ["verify"]) == EXIT_VERIFY
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith(f"FAIL cache_integrity: CacheInvalid: boundaries table: {message}")


@pytest.mark.parametrize(
    "edit, rows",
    [(lambda text: text + "12,1.5\n", 12), (lambda text: text.rsplit("\n", 2)[0] + "\n", 10)],
    ids=["extra_row", "missing_row"],
)
def test_cached_boundaries_hold_one_row_more_than_the_strips(
    edit, rows, small_run, tmp_path, capsys
):
    # 10 strips have 11 edges: a validly signed boundaries payload with a
    # row more or less makes compute and analyze exit 3 and verify fail
    out = tmp_path / "o"
    shutil.copytree(small_run, out)
    cache = RunConfig(t_max=100.0, out_dir=out).cache()
    cache.store("boundaries", edit(cache.load("boundaries")))
    args = ["--t-max", "100", "--out", str(out), "--quiet"]
    message = f"boundaries table: {rows} rows for 10 strips"
    for command in ("compute", "analyze"):
        assert main(args + [command]) == 3
        assert message in capsys.readouterr().err
    assert main(args + ["verify"]) == EXIT_VERIFY
    assert f"FAIL cache_integrity: CacheInvalid: {message}" in capsys.readouterr().out


# a value of each kind a reader can meet: not finite, zero, negative, far
# out of range as a float or as an integer, empty and no number; each is set
# in the first and the last data row
SWEEP_VALUES = (
    "nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "1e-300", "99999999999999999999", "", "x",
)
# each figure input and the figures that read it: the strips figures and a
# deviation figure of each series read strips.csv and zeros.csv together
STRIP_FIGURES = (2, 3, 8, 9, 10, 11, 16)
SWEEP_READERS = {"strips.csv": STRIP_FIGURES, "zeros.csv": STRIP_FIGURES, "gram.csv": (1,)}


RESPELLED = "respelled with its number kept"


def _respelled(cell: str) -> str | None:
    """cell spelled otherwise with its number kept: a 0 after the last
    decimal of a float, a + before a non-negative integer; else None."""
    mantissa, e, exponent = cell.partition("e")
    if "." in mantissa:
        return f"{mantissa}0{e}{exponent}"
    return "+" + cell if cell.isdigit() else None


def _mutations(text: str):
    """(label, text) with one cell of the first or last data row set to
    each sweep value, and respelled, for every column."""
    lines = text.splitlines()
    for column in lines[0].split(","):
        for row in (1, -1):
            for value in SWEEP_VALUES:
                yield f"{column}[{row}]={value!r}", _set_cell(text, row, column, value)
            cell = lines[row].split(",")[lines[0].split(",").index(column)]
            if (value := _respelled(cell)) is not None:
                yield f"{column}[{row}] {RESPELLED}: {value!r}", _set_cell(text, row, column, value)


SWAPPED = "first two rows swapped"


def _row_mutations(text: str):
    """(label, text) with the last data row dropped, with it repeated, and
    with the first two data rows swapped."""
    header, first, second, *rest = lines = text.splitlines()
    yield "last row dropped", "\n".join(lines[:-1]) + "\n"
    yield "last row repeated", "\n".join(lines + lines[-1:]) + "\n"
    yield SWAPPED, "\n".join([header, second, first, *rest]) + "\n"


def test_cached_census_without_strips_is_invalid(small_run, tmp_path, capsys):
    # validly signed tables of no strip, no zero and one boundary: compute
    # exits 3 instead of failing on the missing last strip, and verify fails
    out = tmp_path / "o"
    shutil.copytree(small_run, out)
    cache = RunConfig(t_max=100.0, out_dir=out).cache()
    for kind, rows in (("strips", 1), ("zeros", 1), ("boundaries", 2)):
        cache.store(kind, "\n".join(cache.load(kind).splitlines()[:rows]) + "\n")
    args = ["--t-max", "100", "--out", str(out), "--quiet"]
    assert main(args + ["compute"]) == 3
    message = "zeros table: not the header 'j,t,strip_m', rows and a final newline"
    assert message in capsys.readouterr().err
    assert main(args + ["verify"]) == EXIT_VERIFY
    assert f"FAIL cache_integrity: CacheInvalid: {message}" in capsys.readouterr().out


def test_every_reader_survives_every_cell(small_run, tmp_path, monkeypatch, capsys):
    # every column of every figure input and of every cache payload (re-signed
    # through Cache.store), and each payload a row short or long or with its
    # first two rows swapped: the commands that read it return 0, 2 or 3,
    # warm compute refuses every swapped and every respelled payload with 3
    # (a cached row is served only as compute writes it), none escapes main,
    # a plot that fails leaves no SVG and one that succeeds draws no nan or
    # infinity; verify passes a cache exactly when warm compute serves it,
    # analyze, which reads no gram payload, exits 3 on a strips, zeros or
    # boundaries payload exactly when compute does, and every figure exits
    # on a strips.csv or zeros.csv cell as compute does on that payload
    out = tmp_path / "o"
    shutil.copytree(small_run, out, ignore=shutil.ignore_patterns("*.svg"))
    args = ["--t-max", "100", "--out", str(out), "--quiet"]
    failures = []

    def run(label: str, command: list[str]) -> int | None:
        try:
            rc = main(args + command)
        except Exception as exc:  # an escape is what the sweep looks for
            failures.append(f"{label} {command}: {type(exc).__name__}: {exc}")
            return None
        if rc not in (0, 2, 3):
            failures.append(f"{label} {command}: exit {rc}")
        return rc

    plotted: dict[tuple[str, str], set] = {}  # (kind, label) -> the figures' exit codes

    def plot(label: str, figures) -> set:
        codes = set()
        for figure in figures:
            svg = out / f"fig{figure}.svg"
            svg.unlink(missing_ok=True)
            rc = run(label, ["plot", "--figure", str(figure)])
            codes.add(rc)
            drawn = svg.read_text() if svg.exists() else None
            if (drawn is not None) != (rc == 0):
                failures.append(f"{label} figure {figure}: exit {rc}, SVG: {drawn is not None}")
            elif drawn is not None and ("nan" in drawn or "inf" in drawn):
                failures.append(f"{label} figure {figure}: a nan or an infinity drawn")
        return codes

    for name, figures in SWEEP_READERS.items():
        path, kind = out / name, name.removesuffix(".csv")
        text = path.read_text()
        for label, mutated in _mutations(text):
            path.write_text(mutated)
            codes = plotted[kind, label] = plot(f"{name} {label}", figures)
            if RESPELLED in label and kind != "gram" and codes != {3}:
                failures.append(f"{name} {label}: plot {codes}, not 3")
        path.write_text(text)

    # verify's oracle checks read no cache: over the ~380 payloads each is
    # evaluated once, which halves the sweep
    for name in ("zeta", "find_zeros", "special_gram_point", "primary_zero_of_strip"):
        monkeypatch.setattr(cli, name, functools.cache(getattr(cli, name)))
    cache = RunConfig(t_max=100.0, out_dir=out).cache()
    for kind in KINDS:
        text = cache.load(kind)
        for label, mutated in [*_mutations(text), *_row_mutations(text)]:
            cache.store(kind, mutated)
            computed = run(f"cache {kind} {label}", ["compute"])
            analyzed = run(f"cache {kind} {label}", ["analyze"])
            if label == SWAPPED and computed != 3:
                failures.append(f"cache {kind} {label}: compute {computed}, not 3")
            if RESPELLED in label and computed != 3:
                failures.append(f"cache {kind} {label}: compute {computed}")
            if kind != "gram" and (analyzed == 3) != (computed == 3):
                failures.append(f"cache {kind} {label}: compute {computed}, analyze {analyzed}")
            if kind in ("strips", "zeros") and plotted.get((kind, label), {computed}) != {computed}:
                failures.append(f"cache {kind} {label}: compute {computed}, "
                                f"plot {plotted[kind, label]}")
            served = computed == 0
            capsys.readouterr()
            rc = main(args + ["verify"])
            verified = "PASS cache_integrity: " in capsys.readouterr().out
            if rc not in (0, EXIT_VERIFY) or verified != served:
                failures.append(f"cache {kind} {label}: verify exit {rc}, served {served}")
        cache.store(kind, text)
    assert not failures, f"{len(failures)} failing runs:\n" + "\n".join(failures[:40])


def _file_states(*dirs: Path) -> dict:
    return {p: (p.stat().st_ino, p.stat().st_mtime_ns) for d in dirs for p in d.iterdir()}


def test_rerun_over_an_unchanged_cache_rewrites_nothing(small_run, tmp_path):
    out, cache_dir = tmp_path / "o", small_run / "cache"
    args = ["--t-max", "100", "--out", str(out), "--cache", str(cache_dir), "--quiet"]
    figures = (1, 2, 3, 8, 9, 10, 11, 16)

    def report_round() -> None:
        assert main(args + ["compute"]) == 0
        assert main(args + ["analyze"]) == 0
        for fig in figures:
            assert main(args + ["plot", "--figure", str(fig)]) == 0

    report_round()
    before = _file_states(out, cache_dir)
    assert len(before) == 6 + len(figures) + len(KINDS)
    report_round()
    assert _file_states(out, cache_dir) == before

    # an absent or a different target is still written, and only those
    (out / "fig2.svg").unlink()
    (out / "fits.json").write_bytes(b"{}\n")
    report_round()
    after = _file_states(out, cache_dir)
    assert {p.name for p in after if after[p] != before[p]} == {"fig2.svg", "fits.json"}
    assert (out / "fits.json").read_bytes() == (small_run / "fits.json").read_bytes()


def test_compute_rewrites_a_non_utf8_artifact(small_run, tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "strips.csv").write_bytes(b"\xff")
    rc = main(["--t-max", "100", "--out", str(out), "--cache", str(small_run / "cache"),
               "--quiet", "compute"])
    assert rc == 0
    assert (out / "strips.csv").read_bytes() == (small_run / "strips.csv").read_bytes()


def test_bad_usage_exits_4(tmp_path):
    assert main(["--quiet", "plot"]) == 4  # --figure required
    assert main(["--t-max", "100", "--threads", "0", "--out",
                 str(tmp_path / "o"), "--quiet", "compute"]) == 4  # invalid config


def test_t_max_past_the_window_exits_4(tmp_path):
    out = str(tmp_path / "o")
    assert main(["--t-max", "10993.01", "--out", out, "--quiet", "compute"]) == 4


def test_m_max_flag_and_config_key_exit_4(tmp_path):
    # t_max is the one census extent
    out = tmp_path / "o"
    assert main(["--m-max", "3", "--out", str(out), "--quiet", "compute"]) == 4
    conf = tmp_path / "run.conf"
    conf.write_text("m_max = 3\n")
    assert main(["--config", str(conf), "--out", str(out), "--quiet", "compute"]) == 4
    assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]  # nothing written


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
    assert rc == (3 if issubclass(error, errors.CacheMissing) else 2)


def test_verify_passes_fresh(tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "v"), "--quiet", "verify"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert captured.count("PASS") == 6
    assert "FAIL" not in captured
    assert "PASS strip_one_identity: bottom = 9.6669080561, first zero = 14.134725 (" in captured
    assert "PASS cache_integrity: no cache present (skipped)" in captured
    assert "PASS boundary_margin: no cache present (skipped)" in captured


def test_verify_and_analyze_print_the_boundary_margin(small_run, monkeypatch, capsys):
    boundaries = RunConfig(t_max=100.0, out_dir=small_run).cache().load("boundaries")
    rows = csv.DictReader(boundaries.splitlines())
    margin, m = min((float(row["min_abs_zeta"]), int(row["m"])) for row in rows)
    loaded = []
    load = Cache.load
    monkeypatch.setattr(Cache, "load", lambda self, kind: loaded.append(kind) or load(self, kind))
    args = ["--t-max", "100", "--out", str(small_run), "--quiet"]
    assert main(args + ["analyze"]) == 0
    assert f"boundary_margin={margin:.3e} (m={m})" in capsys.readouterr().out
    assert "boundaries" in loaded

    assert main(args + ["verify"]) == 0
    assert (
        f"PASS boundary_margin: smallest min_abs_zeta = {margin:.3e} at m = {m}"
        in capsys.readouterr().out
    )
    # the check passes only above ZERO_RADIUS
    monkeypatch.setattr(cli, "ZERO_RADIUS", margin)
    assert main(args + ["verify"]) == EXIT_VERIFY
    assert "FAIL boundary_margin" in capsys.readouterr().out


def test_verify_reports_corrupted_cache(small_run, capsys):
    cache_dir = small_run / "cache"
    payload = cache_dir / "strips.csv"
    original = payload.read_bytes()
    first, newline, rows = original.partition(b"\n")
    try:
        payload.write_bytes(first + newline + rows.replace(b"9", b"8", 1))
        rc = main(["--t-max", "100", "--out", str(small_run), "--quiet", "verify"])
        captured = capsys.readouterr().out
        assert rc == 5
        assert "checksum" in captured
        assert "FAIL cache_integrity" in captured
    finally:
        payload.write_bytes(original)


def test_verify_reports_one_bad_cache_once(small_run, tmp_path, capsys):
    # a validly signed strips payload with rows 1 and 2 swapped: verify reads
    # the cache once, and the margin check skips what cache_integrity fails
    out = tmp_path / "o"
    shutil.copytree(small_run, out)
    cache = RunConfig(t_max=100.0, out_dir=out).cache()
    header, one, two, *rest = cache.load("strips").splitlines()
    cache.store("strips", "\n".join([header, two, one, *rest]) + "\n")
    assert main(["--t-max", "100", "--out", str(out), "--quiet", "verify"]) == EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL cache_integrity"
    ]
    assert "PASS boundary_margin: no census read (skipped)" in lines


def test_verify_fails_a_partial_cache(tmp_path, capsys):
    # a missing entry fails verify, as warm compute finds it missing
    out = tmp_path / "out"
    assert main(["--t-max", "30", "--out", str(out), "--quiet", "compute"]) == 0
    (out / "cache" / "zeros.csv").unlink()
    rc = main(["--t-max", "30", "--out", str(out), "--quiet", "verify"])
    captured = capsys.readouterr().out
    assert rc == EXIT_VERIFY
    assert "FAIL cache_integrity: CacheMissing: cache entry 'zeros' not found in " in captured


def test_warm_compute_loads_each_entry_once(small_run, monkeypatch):
    loaded = []
    real_load = Cache.load

    def counting(cache, kind):
        loaded.append(kind)
        return real_load(cache, kind)

    monkeypatch.setattr(Cache, "load", counting)
    result = compute(RunConfig(t_max=100.0, out_dir=small_run, progress=False))
    assert result.from_cache
    assert sorted(loaded) == sorted(KINDS)


def test_load_opens_its_payload_once(small_run, monkeypatch):
    # one file per entry: its first line, then the payload load returns
    cache = RunConfig(t_max=100.0, out_dir=small_run, progress=False).cache()
    entry = cache.dir / "strips.csv"
    opened = []
    real_open = Path.open

    def counting(path, *args, **kwargs):
        opened.append(Path(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting)
    text = cache.load("strips")
    assert opened == [entry]
    first, payload = entry.read_text(encoding="utf-8").split("\n", 1)
    assert first.startswith(f"strips {cache.key} ")
    assert text == payload


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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# entry bytes from the key and the payload of a t_max = 30 strips entry
FIRST_LINES = {
    "another kind": lambda key, payload: f"zeros {key} {_sha256(payload)}\n".encode() + payload,
    "another t_max": lambda key, payload: (
        f"strips {Cache(Path('c'), 31.0).key} {_sha256(payload)}\n".encode() + payload),
    "other code": lambda key, payload: (
        f"strips {_sha256(b'other code')} {_sha256(payload)}\n".encode() + payload),
    "another checksum": lambda key, payload: (
        f"strips {key} {_sha256(payload + b'1')}\n".encode() + payload),
    "no newline after it": lambda key, payload: f"strips {key} {_sha256(payload)}".encode(),
    "empty": lambda key, payload: b"",
}


@pytest.mark.parametrize("entry_bytes", FIRST_LINES.values(), ids=FIRST_LINES)
def test_an_entry_whose_first_line_store_would_not_write_is_invalid(
    entry_bytes, tmp_path, capsys
):
    # an entry is one file: "<kind> <key> <sha256 of the rest>", then the
    # payload.  Any other first line fails the load, verify reports it on
    # one FAIL line, and warm compute recomputes the entry's same bytes
    args = ["--t-max", "30", "--out", str(tmp_path / "o"), "--quiet"]
    assert main(args + ["compute"]) == 0
    cache = RunConfig(t_max=30.0, out_dir=tmp_path / "o").cache()
    entry = cache.dir / "strips.csv"
    original, payload = entry.read_bytes(), cache.load("strips").encode()
    entry.write_bytes(entry_bytes(cache.key, payload))
    message = "cache entry 'strips' failed its first-line check"
    with pytest.raises(CacheInvalid, match=message):
        cache.load("strips")
    capsys.readouterr()
    assert main(args + ["verify"]) == EXIT_VERIFY
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL cache_integrity: CacheInvalid: {message} "
                     "(kind, key of this code and t_max, payload checksum)"]
    assert main(args + ["compute"]) == 0
    assert "(fresh run," in capsys.readouterr().out
    assert entry.read_bytes() == original


def test_a_cache_of_the_old_layout_recomputes_once(tmp_path, capsys):
    # an older version wrote each payload bare, beside a .meta.json: its
    # entries fail their first line, compute recomputes them once, and the
    # sidecars are left as they are and never read
    args = ["--t-max", "30", "--out", str(tmp_path / "o"), "--quiet"]
    assert main(args + ["compute"]) == 0
    cache = RunConfig(t_max=30.0, out_dir=tmp_path / "o").cache()
    entries = {kind: (cache.dir / f"{kind}.csv").read_bytes() for kind in KINDS}
    for kind in KINDS:
        (cache.dir / f"{kind}.csv").write_text(cache.load(kind), encoding="utf-8")
        (cache.dir / f"{kind}.meta.json").write_text("{}", encoding="utf-8")
    capsys.readouterr()
    for source in ("(fresh run,", "(cache,"):
        assert main(args + ["compute"]) == 0
        assert source in capsys.readouterr().out
    assert {kind: (cache.dir / f"{kind}.csv").read_bytes() for kind in KINDS} == entries
    assert all((cache.dir / f"{kind}.meta.json").read_text() == "{}" for kind in KINDS)


def test_fresh_compute_leaves_one_file_per_entry(tmp_path):
    compute(RunConfig(t_max=30.0, out_dir=tmp_path))
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == sorted(
        f"{kind}.csv" for kind in KINDS)


def test_swapped_cache_entry_is_invalid(tmp_path, capsys):
    # one key serves every kind, so only the first line's kind tells a zeros
    # entry copied over the strips entry from the real one
    args = ["--t-max", "30", "--out", str(tmp_path / "o"), "--quiet"]
    assert main(args + ["compute"]) == 0
    cache = RunConfig(t_max=30.0, out_dir=tmp_path / "o").cache()
    original = (cache.dir / "strips.csv").read_bytes()
    shutil.copyfile(cache.dir / "zeros.csv", cache.dir / "strips.csv")
    with pytest.raises(CacheInvalid, match="first-line check"):
        cache.load("strips")
    capsys.readouterr()
    assert main(args + ["compute"]) == 0
    assert "(fresh run," in capsys.readouterr().out
    assert (cache.dir / "strips.csv").read_bytes() == original
    assert (tmp_path / "o" / "strips.csv").read_bytes() == original.partition(b"\n")[2]


def test_edited_package_serves_no_cache(tmp_path):
    # a comment added to any module of the package changes the cache key
    src = Path(zetastrips.__file__).parent
    edited = tmp_path / "edited"
    shutil.copytree(src, edited / "zetastrips", ignore=shutil.ignore_patterns("__pycache__"))
    with (edited / "zetastrips" / "pipeline.py").open("a", encoding="utf-8") as f:
        f.write("# edited\n")
    out = tmp_path / "o"

    def compute_with(path: Path) -> str:
        env = dict(os.environ, PYTHONPATH=str(path))
        cmd = [sys.executable, "-m", "zetastrips.cli", "--t-max", "25", "--out", str(out),
               "--quiet", "compute"]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout

    assert "(fresh run, " in compute_with(src.parent)
    assert "(cache, " in compute_with(src.parent)
    assert "(fresh run, " in compute_with(edited)


def test_every_exported_name_resolves():
    missing = [name for name in zetastrips.__all__ if not hasattr(zetastrips, name)]
    assert missing == []
    assert sorted(zetastrips.__all__) == sorted(
        [
            "RunConfig",
            "compute",
            "analyze",
            "gram_point",
            "special_gram_point",
            "primary_zero_of_strip",
            "trace",
            "hardy_z",
            "find_zeros",
            "Strip",
            "arch_centers",
        ]
    )


def test_cache_fingerprint_rejects_other_config(small_run):
    cfg_other = RunConfig(t_max=120.0, out_dir=small_run, progress=False)
    cache = cfg_other.cache()
    with pytest.raises(CacheInvalid):
        cache.load("strips")


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


@pytest.mark.parametrize("line", ["threads = two", "t_max = 1e3x", "threads = 1.5"])
def test_config_file_malformed_value_exits_4(line, tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text(line + "\n")
    out = tmp_path / "o"
    assert main(["--config", str(conf), "--out", str(out), "--quiet", "compute"]) == 4
    key, value = (part.strip() for part in line.split("="))
    err = capsys.readouterr().err
    assert key in err and value in err
    assert not out.exists()  # rejected before any work


def test_analyze_of_too_few_strips_for_quartiles(tmp_path, capsys):
    # t_max = 30 gives 2 strips, too few for a fit, and t_max = 75 gives 7:
    # one per quartile, no variance to report; both fail with one message
    for t_max, n in (("30", 2), ("75", 7)):
        out = tmp_path / t_max
        args = ["--t-max", t_max, "--out", str(out), "--quiet"]
        assert main(args + ["compute"]) == 0
        assert main(args + ["analyze"]) == 3
        assert f"need >= 8 strips (two per quartile), got {n}" in capsys.readouterr().err
        assert not (out / "fits.json").exists()


def test_figures_of_a_census_too_small_to_analyze(tmp_path, capsys):
    # a figure needs no analyze: a census of 7 strips, too few for analyze's
    # quartiles, draws every figure it covers, and one of 2 strips draws all
    # but those with a fit, which exit 3 with the fit's message and no SVG
    for t_max, unfit in (("30", (2, 9, 11)), ("75", ())):
        out = tmp_path / t_max
        args = ["--t-max", t_max, "--out", str(out), "--quiet"]
        assert main(args + ["compute"]) == 0
        for figure in (1, 2, 3, 8, 9, 10, 11, 16):
            capsys.readouterr()
            rc = main(args + ["plot", "--figure", str(figure)])
            assert rc == (3 if figure in unfit else 0), f"t_max {t_max} figure {figure}"
            assert (out / f"fig{figure}.svg").exists() == (rc == 0)
            if rc:
                assert "need >= 3 points for a fit, got 2" in capsys.readouterr().err


def test_a_census_too_small_for_a_command_asks_for_a_larger_t_max(tmp_path, capsys):
    # too few strips is no failed computation: compute again gives the same
    # 2 strips, and only a larger --t-max gives more
    args = ["--t-max", "30", "--out", str(tmp_path), "--quiet"]
    assert main(args + ["compute"]) == 0
    for command, need in ((["plot", "--figure", "11"], "need >= 3 points for a fit, got 2"),
                          (["analyze"], "need >= 8 strips (two per quartile), got 2")):
        capsys.readouterr()
        assert main(args + command) == 3
        err = capsys.readouterr().err
        assert f"{need}: the census ends at strip 2; only a larger --t-max reaches that" in err
        assert "run 'zetastrips compute' first" not in err
    assert not (tmp_path / "fig11.svg").exists()
    assert not (tmp_path / "fits.json").exists()


def test_config_file_not_utf8_exits_4(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"t_max = 1e3\n\xff\n")
    out = tmp_path / "o"
    assert main(["--config", str(conf), "--out", str(out), "--quiet", "compute"]) == 4
    assert f"config file {conf} is not UTF-8" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.conf"]  # nothing written


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
