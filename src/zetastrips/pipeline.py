"""Compute/analyze orchestration over a worker pool, cache persistence,
and artifact emission.

``compute`` runs one path from contour to strip.  Three batches of
independent jobs, keyed by strip index, map the public checked functions
over the strip range: ``contour.strip_boundary`` for the boundary traces
and their Gram indices n_m, ``contour.primary_zero_of_strip`` for the
primary traces, and ``strips.find_zeros`` for the per-strip zero scans,
strip m expecting n_{m+1} - n_m zeros.  ``_census`` then builds each
``Strip``, which checks itself; ``compute`` reads the texts, fresh or
cached, through ``read_census`` before it stores or emits any.  Every batch
returns its results in job order, so the emitted artifacts are
byte-identical for any worker count.  One worker maps the jobs in this
process and loads no process pool; only more than one imports
``concurrent.futures``.

Each table parser keeps its last checked result (``lru_cache(maxsize=1)``):
an equal text read again in the same process returns the same immutable
objects, and a refused text, whose raise is not kept, is refused on every call.
``analyze``, ``verify`` and every figure of ``plot`` read the census through
these parsers too; their arguments are positional-only, so every call keys
the memo alike.  Every CSV is written by ``_table`` from f-string rows, and
a census too small for a command is ``CacheMissing``: only a larger t_max
gives it more strips.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from itertools import islice, takewhile
from operator import lt
from pathlib import Path

from . import analysis
from .cache import KINDS, Cache, fmt, round12, write_atomic
from .contour import primary_zero_of_strip, strip_boundary
from .errors import CacheInvalid, CacheMissing, DomainError, NotSpecial
from .gram import default_table, gap_ratio_series, gram_point
from .strips import Strip, find_zeros
from .zeta import T_ABS_MAX

SLOPE = analysis.SLOPE_MODEL

GRAM_HEADER = "n,g,gap,gap_ratio,gap_ratio_geo"
BOUNDARY_HEADER = "m,min_abs_zeta"
ZEROS_HEADER = "j,t,strip_m"
STRIPS_HEADER = "m,bottom,top,width,gram_count,n_zeros,primary_index,primary_height,primary_stat"

def _boundary_estimate(t_max: float) -> int:
    """Number of boundary contours the boundary batch traces: enough to
    pass t_max, as crossing m stays within 2.5 of m * SLOPE."""
    return math.ceil((t_max + 2.5) / SLOPE)


@dataclass(frozen=True)
class RunConfig:
    t_max: float = 1e4
    threads: int = 1
    out_dir: Path = Path("out")
    cache_dir: Path | None = None
    progress: bool = False

    def __post_init__(self) -> None:
        g_1 = gram_point(1)  # the Gram series needs g_0 and g_1 <= t_max
        if not g_1 <= self.t_max <= T_ABS_MAX:
            raise DomainError(f"t_max {self.t_max} outside [g_1 = {g_1:.4f}, {T_ABS_MAX}]")
        if self.threads < 1:
            raise DomainError(f"threads {self.threads} < 1")
        # boundary m launches near m * SLOPE, which must lie in the window
        last = _boundary_estimate(self.t_max)
        if last * SLOPE > T_ABS_MAX:
            raise DomainError(
                f"boundary contour {last} launches near {last * SLOPE:.2f}, "
                f"above the evaluation window |t| <= {T_ABS_MAX}"
            )
        # either directory may be given as a str; it is a Path from here on
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))

    @property
    def cache_path(self) -> Path:
        return self.cache_dir if self.cache_dir is not None else self.out_dir / "cache"

    def cache(self) -> Cache:
        return Cache(self.cache_path, self.t_max)


@dataclass
class ComputeResult:
    strips: tuple[Strip, ...]
    boundaries: list[float]
    from_cache: bool = False


def _zeros_job(args: tuple[int, float, float, int]) -> list[float]:
    _, lo, hi, expected = args
    return [r.t for r in find_zeros(lo, hi, expected)]


def _run_jobs(jobs, worker, threads: int, label: str, progress: bool) -> list:
    """worker(job) for every job, in job order, on at most ``threads``
    processes and never more than there are jobs.  One worker maps the jobs
    in this process and loads no process pool."""
    workers = min(threads, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _collect(pool.map(worker, jobs, chunksize=4), len(jobs), label, progress)
    return _collect(map(worker, jobs), len(jobs), label, progress)


def _collect(outs, total: int, label: str, progress: bool) -> list:
    """The list of outs, with a progress line every 50 results that gives
    the rate and the time left at that rate."""
    results = []
    start = time.monotonic()
    for out in outs:
        results.append(out)
        done = len(results)
        if progress and done % 50 == 0:
            rate = done / max(time.monotonic() - start, 1e-9)
            print(
                f"  {label}: {done}/{total} ({rate:.1f}/s, ETA {(total - done) / rate:.0f} s)",
                file=sys.stderr,
            )
    return results


def _boundary_batch(config: RunConfig) -> list[tuple[float, int, float]]:
    """``strip_boundary``'s (crossing, Gram index, min |zeta|) for
    boundaries m = 1..m_count+1, where m_count strips fit under t_max.  One
    batch: its last crossing must pass t_max, which holds while every
    crossing stays above m * SLOPE - 2.5.  The Gram indices must strictly
    increase, and with them the crossings; the primary and zero stages
    rely on that and do not check it again."""
    last = _boundary_estimate(config.t_max)
    traced = _run_jobs(
        range(1, last + 1), strip_boundary, config.threads, "boundaries", config.progress
    )
    if traced[-1][0] <= config.t_max:
        raise NotSpecial(
            f"boundary {last} crosses at {traced[-1][0]}, not above t_max "
            f"{config.t_max}: more than 2.5 below {last} * SLOPE"
        )
    edges = traced[: sum(1 for crossing, _, _ in traced if crossing <= config.t_max)]
    if any(later[1] <= earlier[1] for earlier, later in zip(edges, edges[1:])):
        raise NotSpecial("boundary Gram indices are not strictly increasing")
    return edges


def _table(header: str, rows) -> str:
    """The text of a table: its header, then its rows, each line ended by a newline."""
    return "\n".join([header, *rows]) + "\n"


def _gram_csv(t_max: float) -> str:
    rows = [(-1, gram_point(-1)), *gap_ratio_series(default_table().extend_to_height(t_max))]
    return _table(GRAM_HEADER, (_gram_row(*row) for row in rows))


def _make_dirs(*dirs: Path) -> list[Path]:
    """Make each of dirs and its missing parents; the directories made,
    deepest first."""
    made: list[Path] = []
    for directory in dirs:
        missing = list(takewhile(lambda p: not p.exists(), (directory, *directory.parents)))
        directory.mkdir(parents=True, exist_ok=True)
        made[:0] = missing
    return made


def _emit(out_dir: Path, name: str, text: str) -> None:
    write_atomic(out_dir / name, text.encode("utf-8"))


def _strip_row(s: Strip, width: float) -> str:
    """strips.csv's row of strip s, its width cell written from width."""
    return (f"{s.m},{fmt(s.bottom)},{fmt(s.top)},{fmt(width)},{s.gram_count},{len(s.zeros)},"
            f"{s.primary_index},{fmt(s.primary_height)},{fmt(s.primary_stat)}")


def _zero_row(j: int, t: float, m: int) -> str:
    return f"{j},{fmt(t)},{m}"


def _boundary_row(m: int, margin: float) -> str:
    return f"{m},{fmt(margin)}"


def _gram_row(n: int, g: float, *gaps: float) -> str:
    """gram.csv's row n, its gap cells empty in row -1."""
    return ",".join([str(n), fmt(g), *(("",) * 3 if n < 0 else map(fmt, gaps))])


def _rows(text: str, header: str, table: str):
    """(row number from 1, line) of each row of a table text as ``_table`` writes it."""
    lines = text.split("\n")
    if lines[0] != header or len(lines) < 3 or lines[-1]:
        raise CacheInvalid(f"{table} table: not the header {header!r}, rows and a final newline")
    return enumerate(lines[1:-1], 1)


def _expect(table: str, j: int, line: str, want: str) -> None:
    """CacheInvalid unless row j of table reads want, the row compute writes."""
    if line != want:
        raise CacheInvalid(f"{table} table: row {j} reads {line!r}, but compute writes {want!r}")


@lru_cache(maxsize=1)
def parse_strips(strips_text: str, zeros_text: str, /) -> tuple[Strip, ...]:
    """The Strip records of the cached CSVs, read in one ordered pass.  Strip
    m's zeros, the next n_zeros zeros rows, must read as ``_zero_row`` writes
    them before its Strip is built and checks itself, and its row as
    ``_strip_row`` writes that Strip, at its own width cell's value.  Each
    bottom must be the previous top, the width match the finite span to 1e-7
    relative (a nan never does), and no zeros row be left over."""
    try:
        zero_rows = _rows(zeros_text, ZEROS_HEADER, "zeros")
        strips = []
        for m, line in _rows(strips_text, STRIPS_HEADER, "strips"):
            m_cell, bottom, top, width, gram_count, n_zeros, index, height, _ = line.split(",")
            zeros, owner = [], int(m_cell)
            for j, row in islice(zero_rows, int(n_zeros)):
                _, t, _ = row.split(",")
                zeros.append(float(t))
                _expect("zeros", j, row, _zero_row(j, zeros[-1], owner))
            if strips and float(bottom) != strips[-1].top:
                raise CacheInvalid(f"strip {m}: bottom {bottom} is not strip {m - 1}'s top")
            span, width = float(top) - float(bottom), float(width)
            if not (math.isfinite(span) and abs(span - width) <= 1e-7 * max(1, abs(span))):
                raise CacheInvalid(f"strip {m}: width column inconsistent with bounds")
            strip = Strip(m=m, bottom=float(bottom), top=float(top), gram_count=int(gram_count),
                          zeros=tuple(zeros), primary_index=int(index), primary_height=float(height))
            _expect("strips", m, line, _strip_row(strip, width))
            strips.append(strip)
    except ValueError as exc:  # a ragged row, a cell that does not cast or a count islice refuses
        raise CacheInvalid(f"strips or zeros table does not parse: {exc}") from None
    if leftover := next(zero_rows, None):
        raise CacheInvalid(f"zeros table: row {leftover[0]} follows the last strip's zeros")
    return tuple(strips)


@lru_cache(maxsize=1)
def parse_gram(gram_text: str, /) -> tuple[tuple[float, ...], ...]:
    """The n, g, gap, gap_ratio and gap_ratio_geo columns of gram.csv, row -1's
    gap cells nan; CacheInvalid unless each row reads as ``_gram_row`` writes
    it, n from -1, g finite and strictly ascending and the gaps finite below."""
    rows = []
    try:
        for j, line in _rows(gram_text, GRAM_HEADER, "gram"):
            cells = line.split(",")[1:]
            if j == 1:  # row -1: its gap cells are empty, read as nan
                cells[1:] = [cell or "nan" for cell in cells[1:]]
            g, gap, plain, geo = map(float, cells)
            _expect("gram", j, line, _gram_row(j - 2, g, gap, plain, geo))
            rows.append((g, gap, plain, geo))
    except ValueError as exc:  # a ragged row or a cell that does not cast
        raise CacheInvalid(f"gram table does not parse: {exc}") from None
    gs, *gaps = zip(*rows)
    if not (all(map(math.isfinite, gs)) and all(map(lt, gs, gs[1:]))):
        raise CacheInvalid("gram table: the g column is not finite and strictly ascending")
    if not all(math.isfinite(v) for gap in gaps for v in gap[1:]):
        raise CacheInvalid("gram table: the gap columns are not finite below row -1")
    return (tuple(map(float, range(-1, len(gs) - 1))), gs, *gaps)


@lru_cache(maxsize=1)
def boundary_margin(boundaries_text: str, n_strips: int, /) -> tuple[float, int]:
    """(smallest min_abs_zeta, its boundary m) of the cached boundaries.csv
    of a census of n_strips strips; CacheInvalid unless each of its n_strips
    + 1 rows reads as ``_boundary_row`` writes it, with a finite margin."""
    margins = []
    try:
        for m, row in _rows(boundaries_text, BOUNDARY_HEADER, "boundaries"):
            margins.append(float(row.partition(",")[2]))  # a ragged row does not cast
            _expect("boundaries", m, row, _boundary_row(m, margins[-1]))
    except ValueError as exc:
        raise CacheInvalid(f"boundaries table does not parse: {exc}") from None
    if len(margins) != n_strips + 1:
        raise CacheInvalid(f"boundaries table: {len(margins)} rows for {n_strips} strips")
    if not all(map(math.isfinite, margins)):
        raise CacheInvalid("boundaries table: a min_abs_zeta cell is not finite")
    return min((margin, m) for m, margin in enumerate(margins, 1))


def require_strips(strips: tuple[Strip, ...], need: int, reason: str) -> tuple[Strip, ...]:
    """strips, or CacheMissing when there are fewer than need of them."""
    if len(strips) < need:
        raise CacheMissing(f"{reason}, got {len(strips)}: the census ends at strip "
                           f"{strips[-1].m}; only a larger --t-max reaches that")
    return strips


def read_census(texts: dict[str, str]) -> tuple[tuple[Strip, ...], tuple[float, int]]:
    """The checked strips and boundary margin of a census's four cache texts,
    each table read by its own checking parser; else CacheInvalid or a
    failed Strip check.  The one rule for serving a census."""
    parse_gram(texts["gram"])
    strips = parse_strips(texts["strips"], texts["zeros"])
    return strips, boundary_margin(texts["boundaries"], len(strips))


def _census(config: RunConfig) -> dict[str, str]:
    """The cache texts of the strips traced, scanned and assembled afresh."""
    edges = _boundary_batch(config)
    m_count = len(edges) - 1
    if config.progress:
        print(f"  {m_count} strips, top {edges[-1][0]:.3f}", file=sys.stderr)

    primary = partial(primary_zero_of_strip, check_containment=False)
    primaries = [
        zero.t
        for zero in _run_jobs(
            range(1, m_count + 1), primary, config.threads, "primaries", config.progress
        )
    ]

    zero_jobs = [
        (m, bottom, top, n_top - n_bottom)
        for m, ((bottom, n_bottom, _), (top, n_top, _)) in enumerate(zip(edges, edges[1:]), 1)
    ]
    zero_lists = _run_jobs(zero_jobs, _zeros_job, config.threads, "zeros", config.progress)
    strips = []
    for (m, bottom, top, count), primary_height, heights in zip(zero_jobs, primaries, zero_lists,
                                                                 strict=True):
        diffs = [abs(t - primary_height) for t in heights]
        nearest = diffs.index(min(diffs)) + 1 if diffs else 0
        strips.append(Strip(m=m, bottom=bottom, top=top, gram_count=count, zeros=tuple(heights),
                            primary_index=nearest, primary_height=primary_height))
    heights = ((t, s.m) for s in strips for t in s.zeros)
    return {
        "gram": _gram_csv(config.t_max),
        "boundaries": _table(BOUNDARY_HEADER, (
            _boundary_row(m, margin) for m, (_, _, margin) in enumerate(edges, 1))),
        "zeros": _table(ZEROS_HEADER, (_zero_row(j, t, m) for j, (t, m) in enumerate(heights, 1))),
        "strips": _table(STRIPS_HEADER, (_strip_row(s, s.width) for s in strips)),
    }


def compute(config: RunConfig) -> ComputeResult:
    """Populate the cache (Gram table, boundaries, zeros, strips) and emit
    gram.csv / strips.csv / zeros.csv.  A warm cache, every entry of which
    loads, short-circuits all computation.  The texts, fresh or cached,
    pass ``read_census`` before any is stored or emitted, and the checked
    strips it parses, on the 12-digit grid, are returned.  Both directories
    are made first, so that one that cannot be fails before any work; a run
    that fails before it writes removes the ones it made."""
    cache = config.cache()
    made = _make_dirs(config.out_dir, cache.dir)
    try:
        try:
            texts, from_cache = {kind: cache.load(kind) for kind in KINDS}, True
        except CacheMissing:  # or its subclass CacheInvalid
            texts, from_cache = _census(config), False
        strips, _ = read_census(texts)
    except BaseException:
        for directory in made:
            directory.rmdir()
        raise
    if not from_cache:
        for kind in KINDS:
            cache.store(kind, texts[kind])
    for name in ("gram", "strips", "zeros"):
        _emit(config.out_dir, f"{name}.csv", texts[name])
    boundaries = [s.bottom for s in strips] + [strips[-1].top]
    return ComputeResult(strips=strips, boundaries=boundaries, from_cache=from_cache)


@dataclass
class AnalysisResult:
    bottoms: analysis.LinearFit
    tops: analysis.LinearFit
    density_log: analysis.LinearFit
    primary: analysis.PrimaryStats
    density_dev: list[tuple[int, float]]
    arches: list[analysis.ArchPrediction]
    branch_report: list[tuple[int, float | None]]
    boundary_margin: tuple[float, int]

    def summary_lines(self) -> list[str]:
        out = [
            f"n_strips={self.bottoms.n}",
            f"slope={self.bottoms.slope:.5f} (se {self.bottoms.slope_se:.2e})",
            f"intercept={self.bottoms.intercept:.4f} (se {self.bottoms.intercept_se:.4f})",
            f"tops_intercept={self.tops.intercept:.4f} (se {self.tops.intercept_se:.4f})",
            f"density_log: slope={self.density_log.slope:.6f} intercept={self.density_log.intercept:.6f}",
            f"primary_mean={self.primary.mean:.4f}",
            f"primary_variance={self.primary.variance:.4f}",
            "quartile_variances="
            + ",".join(f"{v:.4f}" for v in self.primary.quartile_variances),
            f"boundary_margin={self.boundary_margin[0]:.3e} (m={self.boundary_margin[1]})",
        ]
        q1 = [gap for q, gap in self.branch_report if q == 1 and gap]
        q2 = [gap for q, gap in self.branch_report if q == 2 and gap]
        if q1:
            out.append(f"branch_gap_q1={sum(q1) / len(q1):.4f} ({len(q1)} centers)")
        if q2 and q1:
            ratio = (sum(q2) / len(q2)) / (sum(q1) / len(q1))
            out.append(
                f"branch_gap_q2={sum(q2) / len(q2):.4f} ratio_q2_q1={ratio:.3f} "
                "(reported, not asserted; expected near 0.5)"
            )
        return out


def analyze(config: RunConfig) -> AnalysisResult:
    """Regressions and deviation series over the cached strips, and the
    cached boundaries' margin, each read by the parser ``read_census``
    reads it with; writes fits.json, deviations.csv, arches.csv.  A census
    of fewer than 8 strips, two per quartile of primary_stats, is
    CacheMissing before any fit."""
    cache = config.cache()
    try:
        strips = parse_strips(cache.load("strips"), cache.load("zeros"))
        margin = boundary_margin(cache.load("boundaries"), len(strips))
    except CacheMissing as exc:  # or its subclass CacheInvalid
        raise type(exc)(f"{exc}; run 'zetastrips compute' first") from exc
    require_strips(strips, 8, "need >= 8 strips (two per quartile)")
    primary = analysis.primary_stats(strips)
    bottoms = analysis.fit_bottoms(strips)
    tops = analysis.fit_tops(strips)
    density_log, density_dev = analysis.fit_density(strips)
    density_linear = analysis.fit_density_linear(strips)
    bottom_dev = analysis.bottom_deviation_series(strips)

    arches = analysis.census_arches(strips[-1].m)
    branch_report = analysis.branch_spacing_report(strips)

    fits = {
        "bottoms": asdict(bottoms),
        "tops": asdict(tops),
        "density_log": asdict(density_log),
        "density_linear": asdict(density_linear),
        "primary_stats": asdict(primary),
    }
    config.out_dir.mkdir(parents=True, exist_ok=True)
    _emit(config.out_dir, "fits.json", json.dumps(round12(fits), indent=2, sort_keys=True) + "\n")
    _emit(config.out_dir, "deviations.csv", _table("m,bottom_dev,density_dev", (
        f"{m},{fmt(bdev)},{fmt(ddev)}" for (m, bdev), (_, ddev) in zip(bottom_dev, density_dev))))
    _emit(config.out_dir, "arches.csv", _table("p,q,m_center,t_center", (
        f"{a.p},{a.q},{fmt(a.m_center)},{fmt(a.t_center)}" for a in arches)))
    return AnalysisResult(
        bottoms=bottoms,
        tops=tops,
        density_log=density_log,
        primary=primary,
        density_dev=density_dev,
        arches=arches,
        branch_report=branch_report,
        boundary_margin=margin,
    )
