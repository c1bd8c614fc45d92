"""The compute path runs every contour check, and configurations that
cannot finish inside the evaluation window are rejected up front."""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import zetastrips
from zetastrips import cache, contour, pipeline
from zetastrips.cache import fmt
from zetastrips.cli import main
from zetastrips.errors import CacheInvalid, CountMismatch, DomainError, EscapedStrip, NotSpecial
from zetastrips.gram import gap_model, gram_point
from zetastrips.pipeline import RunConfig, compute
from zetastrips.zeta import ComplexPoint


def test_compute_checks_boundary_gram_residual(monkeypatch, tmp_path):
    # a crossing moved 1e-3 up the critical line is no Gram point, and the
    # boundary stage fails before any primary is traced
    real_root = contour._line_root

    def moved(sigma, t):
        root, z = real_root(sigma, t)
        return root + (1e-3 if sigma == 0.5 else 0.0), z

    def refuse(m, **_):
        raise AssertionError(f"primary {m} traced after a bad crossing")

    monkeypatch.setattr(contour, "_line_root", moved)
    monkeypatch.setattr(pipeline, "primary_zero_of_strip", refuse)
    contour.strip_boundary.cache_clear()  # memoized boundaries skip the check
    with pytest.raises(NotSpecial, match="no Gram point"):
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
    # near 10995.51; a higher t_max needs m = 1214 at 11004.57
    RunConfig(t_max=10992.5)
    with pytest.raises(DomainError):
        RunConfig(t_max=10993.01)
    with pytest.raises(DomainError):
        RunConfig(t_max=1.1e4)


def test_t_max_must_reach_g_1():
    g_1 = gram_point(1)
    RunConfig(t_max=g_1)
    with pytest.raises(DomainError):
        RunConfig(t_max=math.nextafter(g_1, 0.0))
    with pytest.raises(DomainError):
        RunConfig(t_max=23.0)


def test_cache_from_other_numerics_is_recomputed(monkeypatch, tmp_path):
    config = RunConfig(t_max=25.0, out_dir=tmp_path)
    compute(config)
    assert compute(config).from_cache
    # same RunConfig, different package code
    monkeypatch.setattr(cache, "_package_digest", lambda: "0" * 64)
    assert not compute(config).from_cache


def test_cache_for_another_t_max_is_recomputed(tmp_path):
    # t_max one ulp below the top of strip 10 holds 9 strips, though both
    # heights print alike on the 12-digit grid
    top = contour.strip_boundary(11)[0]
    below = math.nextafter(top, 0.0)
    assert fmt(below) == fmt(top)
    assert len(compute(RunConfig(t_max=top, out_dir=tmp_path)).strips) == 10
    result = compute(RunConfig(t_max=below, out_dir=tmp_path))
    assert not result.from_cache
    assert len(result.strips) == 9
    assert result.strips[-1].top <= below


def test_run_config_takes_str_directories(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    config = RunConfig(t_max=25.0, out_dir="x")
    assert config.cache_path == Path("x") / "cache"
    assert RunConfig(t_max=25.0, out_dir="x", cache_dir="c").cache_path == Path("c")
    compute(config)
    assert (tmp_path / "x" / "strips.csv").exists()


def _resign_first_row(config: RunConfig, kind: str, column: str, value) -> None:
    """Store the cached ``kind`` entry, its first line valid, with its
    first row's ``column`` cell set to value, a str as it stands or else
    value(cells of that row by column name): a str as it stands, a float
    as fmt writes it."""
    cache = config.cache()
    header, first, *rest = cache.load(kind).splitlines()
    cells = dict(zip(header.split(","), first.split(","), strict=True))
    cell = value if isinstance(value, str) else value(cells)
    cells[column] = cell if isinstance(cell, str) else fmt(cell)
    cache.store(kind, "\n".join([header, ",".join(cells.values()), *rest]) + "\n")


def _primary_above_top(cells: dict[str, str]) -> float:
    return float(cells["top"]) + 1.0


def test_cached_strips_pass_the_fresh_strip_checks(tmp_path):
    # a strips entry whose first line is valid, but whose strip 1
    # has its primary zero 1 above its top
    config = RunConfig(t_max=100.0, out_dir=tmp_path)
    compute(config)
    _resign_first_row(config, "strips", "primary_height", _primary_above_top)
    with pytest.raises(EscapedStrip):
        compute(config)


def test_cached_strips_that_fail_their_checks_overwrite_no_artifact(tmp_path):
    config = RunConfig(t_max=100.0, out_dir=tmp_path)
    compute(config)
    emitted = {name: (tmp_path / name).read_bytes() for name in ("strips.csv", "zeros.csv")}
    _resign_first_row(config, "strips", "primary_height", _primary_above_top)
    assert main(["--t-max", "100", "--out", str(tmp_path), "--quiet", "compute"]) == 2
    assert {name: (tmp_path / name).read_bytes() for name in emitted} == emitted


def test_cached_width_off_its_bounds_is_invalid(tmp_path, capsys):
    # the width cell 1e-3 off top - bottom, then nan, in a validly signed entry
    config = RunConfig(t_max=100.0, out_dir=tmp_path)
    compute(config)
    emitted = (tmp_path / "strips.csv").read_bytes()
    for width in (lambda cells: float(cells["width"]) + 1e-3, "nan"):
        _resign_first_row(config, "strips", "width", width)
        with pytest.raises(CacheInvalid, match="strip 1: width column"):
            compute(config)
        assert main(["--t-max", "100", "--out", str(tmp_path), "--quiet", "compute"]) == 3
        assert "strip 1: width column" in capsys.readouterr().err
        assert (tmp_path / "strips.csv").read_bytes() == emitted


@pytest.mark.parametrize("height", ["500.5", "nan"])
def test_cached_zero_outside_its_own_strip_escapes(tmp_path, capsys, height):
    # a validly signed zeros entry at t_max 30 whose row 3, strip 2's
    # non-primary zero, lies above the strip's top or is no number: compute
    # exits 2 without rewriting zeros.csv, and verify fails
    config = RunConfig(t_max=30.0, out_dir=tmp_path)
    compute(config)
    emitted = (tmp_path / "zeros.csv").read_bytes()
    cache = config.cache()
    lines = cache.load("zeros").splitlines()
    j, _, m = lines[3].split(",")
    assert (j, m) == ("3", "2")
    lines[3] = ",".join([j, height, m])
    cache.store("zeros", "\n".join(lines) + "\n")
    args = ["--t-max", "30", "--out", str(tmp_path), "--quiet"]
    assert main(args + ["compute"]) == 2
    assert "EscapedStrip: strip 2: zeros not ascending" in capsys.readouterr().err
    assert (tmp_path / "zeros.csv").read_bytes() == emitted
    assert main(args + ["verify"]) == 5
    assert "FAIL cache_integrity: EscapedStrip: strip 2: " in capsys.readouterr().out


def _trailing_zero(column: str):
    """The cell of column with a 0 after its last decimal: the same number."""
    return lambda cells: cells[column] + "0"


_COUNT_REFUSED = "Stop argument for islice() must be None or an integer"


@pytest.mark.parametrize("kind, column, cell, message", [
    ("strips", "bottom", "abc", "could not convert string to float: 'abc'"),
    ("strips", "n_zeros", "7", "zeros table: row 2 reads '2,"),
    ("strips", "n_zeros", "99999999999999999999", _COUNT_REFUSED),
    ("strips", "n_zeros", "01", "strips table: row 1 reads '1,"),
    ("strips", "n_zeros", "-1", _COUNT_REFUSED),
    ("strips", "primary_stat", "0.99", "strips table: row 1 reads '1,"),
    # a cell spelled otherwise than compute writes it, its number kept
    ("zeros", "t", _trailing_zero("t"), "zeros table: row 1 reads '1,14.1347251420,1'"),
    ("zeros", "strip_m", "1\r", "zeros table: row 1 reads '1,14.134725142,1\\r'"),
    ("strips", "bottom", _trailing_zero("bottom"), "strips table: row 1 reads '1,9.666908056130,"),
    ("strips", "primary_height", lambda cells: " " + cells["primary_height"],
     "strips table: row 1 reads '1,"),
    ("strips", "gram_count", "01", "strips table: row 1 reads '1,"),
    ("strips", "primary_index", "+1", "strips table: row 1 reads '1,"),
    ("boundaries", "min_abs_zeta", _trailing_zero("min_abs_zeta"),
     "boundaries table: row 1 reads '1,"),
    ("gram", "g", _trailing_zero("g"), "gram table: row 1 reads '-1,9.666908077470,,,'"),
], ids=["bottom", "n_zeros", "n_zeros_huge", "n_zeros_leading_zero", "n_zeros_negative",
        "primary_stat", "zeros_t_trailing_zero", "zeros_carriage_return",
        "bottom_trailing_zero", "primary_height_leading_space", "gram_count_leading_zero",
        "primary_index_plus", "min_abs_zeta_trailing_zero", "gram_g_trailing_zero"])
def test_cached_strip_cell_that_does_not_parse_or_match_is_invalid(
    tmp_path, capsys, kind, column, cell, message
):
    # a validly signed entry with one cell of a strip's row, or of a zeros,
    # boundaries or gram row, not as compute writes it: compute and analyze
    # (which reads no gram payload) exit 3, verify fails its cache check
    # alone, and no artifact is overwritten
    config = RunConfig(t_max=100.0, out_dir=tmp_path)
    compute(config)
    emitted = {name: (tmp_path / name).read_bytes()
               for name in ("gram.csv", "strips.csv", "zeros.csv")}
    _resign_first_row(config, kind, column, cell)
    args = ["--t-max", "100", "--out", str(tmp_path), "--quiet"]
    for command in ("compute",) if kind == "gram" else ("compute", "analyze"):
        assert main(args + [command]) == 3
        assert message in capsys.readouterr().err
    assert main(args + ["verify"]) == 5
    out = capsys.readouterr().out
    assert "FAIL cache_integrity: CacheInvalid: " in out and message in out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        line for line in out.splitlines() if line.startswith("FAIL cache_integrity: ")
    ]
    assert {name: (tmp_path / name).read_bytes() for name in emitted} == emitted


def test_cached_boundary_cell_that_does_not_parse_is_invalid(tmp_path, capsys):
    config = RunConfig(t_max=30.0, out_dir=tmp_path)
    compute(config)
    _resign_first_row(config, "boundaries", "min_abs_zeta", "xyz")
    args = ["--t-max", "30", "--out", str(tmp_path), "--quiet"]
    assert main(args + ["analyze"]) == 3
    assert "boundaries table does not parse" in capsys.readouterr().err
    assert main(args + ["verify"]) == 5
    assert "FAIL cache_integrity: CacheInvalid: boundaries table does not parse" in (
        capsys.readouterr().out
    )


def _renumbered(header: str, rows: list[str]) -> str:
    """A zeros text of header and the rows' t and strip_m cells, j read 1..N."""
    rows = [f"{j},{row.split(',', 1)[1]}" for j, row in enumerate(rows, 1)]
    return "\n".join([header, *rows]) + "\n"


def _strip_one_zeros_last(text: str) -> str:
    # strip 1's rows after every other strip's, j renumbered
    header, *rows = text.splitlines()
    return _renumbered(header, sorted(rows, key=lambda row: row.endswith(",1")))


_LEFT_OVER = "row 4 follows the last strip's zeros"


@pytest.mark.parametrize("edit, message", [
    (lambda text: text + "99,123.5,99\n", _LEFT_OVER),
    (lambda text: text + "4,123.5,99\n", _LEFT_OVER),
    (lambda text: text.replace("\n1,", "\n2,", 1), "row 1 reads '2,14.134725142,1'"),
    (_strip_one_zeros_last, "row 1 reads '1,21.0220396385,2', but compute writes "),
], ids=["orphan_row", "orphan_row_in_sequence", "j_out_of_sequence", "strip_one_zeros_last"])
def test_cached_zeros_outside_every_strip_or_out_of_sequence_are_invalid(
    tmp_path, capsys, edit, message
):
    # a validly signed zeros entry at t_max 30, which holds three zeros, one
    # in strip 1 and two in strip 2: compute and analyze exit 3 without
    # rewriting strips.csv or zeros.csv, and verify fails
    config = RunConfig(t_max=30.0, out_dir=tmp_path)
    compute(config)
    emitted = {name: (tmp_path / name).read_bytes() for name in ("strips.csv", "zeros.csv")}
    cache = config.cache()
    cache.store("zeros", edit(cache.load("zeros")))
    args = ["--t-max", "30", "--out", str(tmp_path), "--quiet"]
    for command in ("compute", "analyze"):
        assert main(args + [command]) == 3
        assert message in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes() for name in emitted} == emitted
    assert main(args + ["verify"]) == 5
    assert f"FAIL cache_integrity: CacheInvalid: zeros table: {message}" in (
        capsys.readouterr().out
    )


def _strips_one_and_two_swapped(texts: dict[str, str]) -> None:
    header, one, two, *rest = texts["strips"].splitlines()
    texts["strips"] = "\n".join([header, two, one, *rest]) + "\n"


def _strip_two_dropped(texts: dict[str, str]) -> None:
    # with its zeros rows, j renumbered, and the last boundaries row
    header, one, _, *rest = texts["strips"].splitlines()
    texts["strips"] = "\n".join([header, one, *rest]) + "\n"
    header, *rows = texts["zeros"].splitlines()
    texts["zeros"] = _renumbered(header, [row for row in rows if not row.endswith(",2")])
    texts["boundaries"] = texts["boundaries"].rsplit("\n", 2)[0] + "\n"


def _strip_one_top_lowered(texts: dict[str, str]) -> None:
    # by 1, still above its zero, and its width cell to match
    header, first, *rest = texts["strips"].splitlines()
    cells = dict(zip(header.split(","), first.split(","), strict=True))
    cells["top"] = fmt(float(cells["top"]) - 1.0)
    cells["width"] = fmt(float(cells["top"]) - float(cells["bottom"]))
    texts["strips"] = "\n".join([header, ",".join(cells.values()), *rest]) + "\n"


@pytest.mark.parametrize("edit, message", [
    # strip 2's row first takes strip 1's zero
    (_strips_one_and_two_swapped, "zeros table: row 1 reads '1,14.134725142,1', but compute "
                                  "writes '1,14.134725142,2'"),
    (_strip_two_dropped, "strip 2: bottom 27.6701822178 is not strip 1's top"),
    (_strip_one_top_lowered, "strip 2: bottom 17.8455995404 is not strip 1's top"),
], ids=["rows_swapped", "strip_dropped", "gap"])
def test_cached_strips_that_do_not_tile_in_order_are_invalid(tmp_path, capsys, edit, message):
    # validly signed tables at t_max 100 whose every strip passes its own
    # checks: compute and analyze exit 3 without rewriting strips.csv or
    # zeros.csv, and verify fails
    config = RunConfig(t_max=100.0, out_dir=tmp_path)
    compute(config)
    emitted = {name: (tmp_path / name).read_bytes() for name in ("strips.csv", "zeros.csv")}
    cache = config.cache()
    texts = {kind: cache.load(kind) for kind in ("strips", "zeros", "boundaries")}
    edit(texts)
    for kind, text in texts.items():
        cache.store(kind, text)
    args = ["--t-max", "100", "--out", str(tmp_path), "--quiet"]
    for command in ("compute", "analyze"):
        assert main(args + [command]) == 3
        assert message in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes() for name in emitted} == emitted
    assert main(args + ["verify"]) == 5
    assert f"FAIL cache_integrity: CacheInvalid: {message}" in capsys.readouterr().out


def _append_non_utf8_line(config: RunConfig, kind: str) -> None:
    """Append a line holding the byte 0xff to the cached ``kind`` payload
    and re-sign the entry: its first line gives the new bytes' checksum."""
    cache = config.cache()
    data = cache.load(kind).encode("utf-8") + b"\xff\n"
    first = f"{kind} {cache.key} {hashlib.sha256(data).hexdigest()}\n"
    (cache.dir / f"{kind}.csv").write_bytes(first.encode("utf-8") + data)


@pytest.mark.parametrize("kind", cache.KINDS)
def test_cached_payload_that_is_not_utf8_is_invalid(tmp_path, capsys, kind):
    # a validly signed entry whose bytes do not decode: analyze exits 3,
    # verify fails its cache check, and compute recomputes the census as
    # for any invalid entry
    config = RunConfig(t_max=30.0, out_dir=tmp_path)
    strips = compute(config).strips
    _append_non_utf8_line(config, kind)
    message = f"cache entry {kind!r} is not UTF-8: "
    with pytest.raises(CacheInvalid, match=message):
        config.cache().load(kind)
    args = ["--t-max", "30", "--out", str(tmp_path), "--quiet"]
    if kind != "gram":  # analyze reads no gram entry
        assert main(args + ["analyze"]) == 3
        assert message in capsys.readouterr().err
    assert main(args + ["verify"]) == 5
    assert f"FAIL cache_integrity: CacheInvalid: {message}" in capsys.readouterr().out
    result = compute(config)
    assert (result.from_cache, result.strips) == (False, strips)
    assert compute(config).from_cache


def _reversed_columns(text: str) -> str:
    return "".join(",".join(line.split(",")[::-1]) + "\n" for line in text.splitlines())


def test_cached_tables_with_reordered_columns_are_invalid(tmp_path):
    # the same tables with their columns in reverse order, header and cells:
    # compute writes one column order, and serves no other
    config = RunConfig(t_max=100.0, out_dir=tmp_path)
    strips = compute(config).strips
    cache = config.cache()
    texts = {kind: cache.load(kind) for kind in ("boundaries", "strips", "zeros")}
    assert pipeline.parse_strips(texts["strips"], texts["zeros"]) == strips
    reordered = {kind: _reversed_columns(text) for kind, text in texts.items()}
    assert reordered["boundaries"].startswith("min_abs_zeta,m\n")
    with pytest.raises(CacheInvalid, match="boundaries table: not the header 'm,min_abs_zeta'"):
        pipeline.boundary_margin(reordered["boundaries"], len(strips))
    with pytest.raises(CacheInvalid, match="strips table: not the header 'm,bottom,"):
        pipeline.parse_strips(reordered["strips"], texts["zeros"])
    with pytest.raises(CacheInvalid, match="zeros table: not the header 'j,t,strip_m'"):
        pipeline.parse_strips(texts["strips"], reordered["zeros"])


def test_failed_assembly_stores_nothing(monkeypatch, tmp_path):
    # strip 3 is scanned one zero short: its Strip raises before any cache
    # entry or artifact is written
    real_job = pipeline._zeros_job

    def short_job(args):
        heights = real_job(args)
        return heights[1:] if args[0] == 3 else heights

    monkeypatch.setattr(pipeline, "_zeros_job", short_job)
    with pytest.raises(CountMismatch):
        compute(RunConfig(t_max=100.0, out_dir=tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []


def test_gram_csv_ends_at_the_last_gram_point_below_t_max(tmp_path):
    compute(RunConfig(t_max=120.0, out_dir=tmp_path))
    rows = csv.DictReader((tmp_path / "gram.csv").read_text(encoding="utf-8").splitlines())
    n = int(list(rows)[-1]["n"])
    assert gram_point(n) <= 120.0 < gram_point(n + 1)


def test_gram_csv_columns_recompute_from_the_gram_points(tmp_path):
    compute(RunConfig(t_max=100.0, out_dir=tmp_path))
    lines = (tmp_path / "gram.csv").read_text(encoding="utf-8").splitlines()
    header, first, *rows = lines
    assert header == pipeline.GRAM_HEADER
    assert first == f"-1,{fmt(gram_point(-1))},,,"
    assert [int(row["n"]) for row in csv.DictReader(lines)] == list(range(-1, len(rows)))
    assert gram_point(len(rows) - 1) <= 100.0 < gram_point(len(rows))
    for n, row in enumerate(rows):
        g, prev = gram_point(n), gram_point(n - 1)
        gap = g - prev
        plain = 1.0 - gap / gap_model(prev)
        geometric = 1.0 - gap / gap_model(math.sqrt(g * prev))
        assert row == ",".join([str(n), fmt(g), fmt(gap), fmt(plain), fmt(geometric)])


def test_boundary_batch_that_falls_short_of_t_max_raises(monkeypatch, tmp_path):
    # t_max sits 2.6 below boundary 12's launch height, so the batch ends at
    # m = 12; crossings 2.8 below m * SLOPE leave that last one under t_max
    t_max = 12 * pipeline.SLOPE - 2.6
    assert pipeline._boundary_estimate(t_max) == 12
    traced = []

    def short(m):
        traced.append(m)
        return m * pipeline.SLOPE - 2.8, m - 2, 1.0

    monkeypatch.setattr(pipeline, "strip_boundary", short)
    with pytest.raises(NotSpecial, match="boundary 12 "):
        compute(RunConfig(t_max=t_max, out_dir=tmp_path))
    assert traced == list(range(1, 13))  # one batch, no extension


def test_warm_strips_match_fresh_ones_on_the_emission_grid(tmp_path):
    # a fresh run returns the strips of the texts it stores, so both runs
    # return the same floats, each on the 12-digit grid
    config = RunConfig(t_max=100.0, out_dir=tmp_path)
    fresh = compute(config)
    warm = compute(config)
    assert (fresh.from_cache, warm.from_cache) == (False, True)
    assert len(fresh.strips) == 10
    assert warm.strips == fresh.strips
    for s in fresh.strips:
        for v in (s.bottom, s.top, s.primary_height, *s.zeros):
            assert v == float(fmt(v))


def test_parsers_serve_an_equal_text_their_last_checked_result(tmp_path):
    # two equal texts, distinct objects as each Cache.load reads them afresh,
    # get the same result object; the strips and the gram columns are tuples
    # of frozen values, so no caller can alter what the next one is served
    config = RunConfig(t_max=100.0, out_dir=tmp_path)
    strips = compute(config).strips
    first, second = ({kind: config.cache().load(kind) for kind in cache.KINDS} for _ in range(2))
    assert first == second and all(first[kind] is not second[kind] for kind in cache.KINDS)
    parsed = pipeline.parse_strips(first["strips"], first["zeros"])
    assert pipeline.parse_strips(second["strips"], second["zeros"]) is parsed
    assert isinstance(strips, tuple) and strips == parsed
    margin = pipeline.boundary_margin(first["boundaries"], len(parsed))
    assert pipeline.boundary_margin(second["boundaries"], len(parsed)) is margin
    columns = pipeline.parse_gram(first["gram"])
    assert pipeline.parse_gram(second["gram"]) is columns
    assert isinstance(columns, tuple) and all(isinstance(column, tuple) for column in columns)


@pytest.mark.parametrize("parser, texts, keywords", [
    (pipeline.parse_gram, lambda t: (t["gram"],), lambda t: {"gram_text": t["gram"]}),
    (pipeline.parse_strips, lambda t: (t["strips"], t["zeros"]),
     lambda t: {"strips_text": t["strips"], "zeros_text": t["zeros"]}),
    (pipeline.boundary_margin, lambda t: (t["boundaries"], 10),
     lambda t: {"boundaries_text": t["boundaries"], "n_strips": 10}),
])
def test_a_keyword_call_neither_parses_nor_evicts_the_memo(tmp_path, parser, texts, keywords):
    # each parser takes its texts positionally only, so a keyword call is a
    # TypeError before the memo is consulted, and the positional call after
    # it still gets the result object the one before it was given
    config = RunConfig(t_max=100.0, out_dir=tmp_path)
    compute(config)
    loaded = {kind: config.cache().load(kind) for kind in cache.KINDS}
    parsed = parser(*texts(loaded))
    with pytest.raises(TypeError):
        parser(**keywords(loaded))
    assert parser(*texts(loaded)) is parsed


def test_a_refused_text_is_refused_on_every_call(tmp_path, capsys):
    # in one process, where each parser keeps its last checked result: a
    # zeros payload with a respelled t cell, re-signed, is refused by compute
    # and analyze whenever it is read, the restored payload is served again,
    # and zeros.csv never changes
    args = ["--t-max", "100", "--out", str(tmp_path), "--quiet"]
    assert main(args + ["compute"]) == 0
    emitted = (tmp_path / "zeros.csv").read_bytes()
    entries = RunConfig(t_max=100.0, out_dir=tmp_path).cache()
    served = entries.load("zeros")
    respelled = served.replace("\n1,14.134725142,1\n", "\n1,14.1347251420,1\n")
    assert respelled != served
    message = "zeros table: row 1 reads '1,14.1347251420,1'"
    for payload, code in ((served, 0), (respelled, 3), (served, 0), (respelled, 3)):
        entries.store("zeros", payload)
        for command in ("compute", "analyze"):
            assert main(args + [command]) == code
            assert (message in capsys.readouterr().err) == (code == 3)
        assert (tmp_path / "zeros.csv").read_bytes() == emitted


def test_one_worker_loads_no_process_pool(tmp_path):
    # a fresh interpreter: other tests in this session start pools
    script = (
        "import sys\n"
        "from zetastrips.pipeline import RunConfig, compute\n"
        f"config = RunConfig(t_max=30, threads=1, out_dir={str(tmp_path)!r})\n"
        "assert not compute(config).from_cache\n"
        "pools = ('multiprocessing', 'concurrent')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in pools))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zetastrips.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_pool_starts_no_more_workers_than_jobs(monkeypatch):
    # under fork, a pool launches all max_workers processes at its first
    # submit; record the request instead of starting any process
    import concurrent.futures

    started: list[int] = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, jobs, chunksize=1):
            return map(worker, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert pipeline._run_jobs(range(3), abs, 64, "boundaries", False) == [0, 1, 2]
    assert pipeline._run_jobs([-5], abs, 64, "primaries", False) == [5]
    assert pipeline._run_jobs(range(20), abs, 2, "zeros", False) == list(range(20))
    assert started == [3, 2]


def test_compute_prints_progress_unless_quiet(tmp_path, capsys):
    # t_max = 460 traces 52 boundaries, so the boundary stage prints one
    # progress line, at 50 of 52; --quiet prints nothing.  Each run is
    # fresh, as a warm cache runs no stage
    def stderr(out: str, *flags: str) -> list[str]:
        assert main(["--t-max", "460", "--out", str(tmp_path / out), *flags, "compute"]) == 0
        return capsys.readouterr().err.splitlines()

    assert stderr("quiet", "--quiet") == []
    boundaries = [line for line in stderr("progress") if line.startswith("  boundaries:")]
    assert len(boundaries) == 1
    assert re.fullmatch(r"  boundaries: 50/52 \(\d+\.\d/s, ETA \d+ s\)", boundaries[0])


def test_progress_lines_give_rate_and_eta(monkeypatch, capsys):
    clock = iter([0.0, 5.0, 10.0])
    monkeypatch.setattr(pipeline, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    assert pipeline._collect(iter(range(120)), 120, "boundaries", True) == list(range(120))
    assert capsys.readouterr().err.splitlines() == [
        "  boundaries: 50/120 (10.0/s, ETA 7 s)",
        "  boundaries: 100/120 (10.0/s, ETA 2 s)",
    ]
