"""Compute/analyze orchestration over a worker pool, cache persistence,
and artifact emission.

``compute`` runs one path from contour to strip.  Three batches of
independent jobs, keyed by strip index, map the public checked functions
over the strip range: ``contour.strip_boundary`` for the boundary traces,
``contour.primary_zero_of_strip`` for the primary traces, and
``strips.find_zeros`` for the per-strip zero scans.  ``strips.build_strips``
then assembles and validates the strips.  Every batch returns its results
in job order, so the emitted artifacts are byte-identical for any worker
count.
"""

from __future__ import annotations

import hashlib
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import cache, partial
from pathlib import Path
from typing import Sequence

from . import analysis
from .cache import Cache, fingerprint, fmt, write_atomic, write_json_atomic
from .contour import primary_zero_of_strip, strip_boundary
from .errors import CacheInvalid, DomainError, NotSpecial
from .gram import default_table, gap_ratio_series, gram_point
from .strips import Strip, ZeroRecord, build_strips, find_zeros
from .zeta import T_ABS_MAX

SLOPE = analysis.SLOPE_MODEL

GRAM_HEADER = "n,g,gap,gap_ratio,gap_ratio_geo"
BOUNDARY_HEADER = "m,k,crossing_t,gram_index,min_abs_zeta"
ZEROS_HEADER = "j,t,strip_m"
STRIPS_HEADER = (
    "m,bottom,top,width,gram_count,n_zeros,primary_index,primary_height,primary_stat"
)

# modules whose code decides the cached numbers
_NUMERIC_SOURCES = ("zeta.py", "gram.py", "contour.py", "strips.py")


@cache
def _numerics_digest() -> str:
    """sha256 over the _NUMERIC_SOURCES, read once per process, so that a
    cache written by other numerics is never served."""
    h = hashlib.sha256()
    for name in _NUMERIC_SOURCES:
        h.update(name.encode("utf-8") + b"\0")
        h.update(Path(__file__).with_name(name).read_bytes())
    return h.hexdigest()


def _boundary_estimate(t_max: float, m_max: int | None) -> int:
    """Number of boundary contours the boundary batch traces: one past
    m_max, or enough to pass t_max, as crossing m stays within 2.5 of
    m * SLOPE."""
    if m_max is not None:
        return m_max + 1
    return math.ceil((t_max + 2.5) / SLOPE)


@dataclass(frozen=True)
class RunConfig:
    t_max: float = 1e4
    m_max: int | None = None
    threads: int = 1
    out_dir: Path = Path("out")
    cache_dir: Path | None = None
    progress: bool = False

    def __post_init__(self) -> None:
        g_1 = gram_point(1)  # the Gram series needs g_0 and g_1 <= t_max
        if not g_1 <= self.t_max <= T_ABS_MAX:
            raise DomainError(f"t_max {self.t_max} outside [g_1 = {g_1:.4f}, {T_ABS_MAX}]")
        if self.m_max is not None and self.m_max < 1:
            raise DomainError(f"m_max {self.m_max} < 1")
        if self.threads < 1:
            raise DomainError(f"threads {self.threads} < 1")
        # boundary m launches near m * SLOPE, which must lie in the window
        last = _boundary_estimate(self.t_max, self.m_max)
        if last * SLOPE > T_ABS_MAX:
            raise DomainError(
                f"boundary contour {last} launches near {last * SLOPE:.2f}, "
                f"above the evaluation window |t| <= {T_ABS_MAX}"
            )

    @property
    def cache_path(self) -> Path:
        return Path(self.cache_dir) if self.cache_dir is not None else self.out_dir / "cache"

    def numeric_dict(self) -> dict:
        from . import __version__  # the package sets it after importing us

        return {
            "version": __version__,
            "sources_sha256": _numerics_digest(),
            "t_max": self.t_max,
            "m_max": self.m_max,
        }

    def cache(self) -> Cache:
        return Cache(self.cache_path, fingerprint(self.numeric_dict()))


@dataclass
class ComputeResult:
    strips: list[Strip]
    boundaries: list[float]
    from_cache: bool = False


def _zeros_job(args: tuple[int, float, float, int]) -> list[float]:
    m, lo, hi, expected = args
    return [r.t for r in find_zeros(lo, hi, expected, strip_m=m)]


def _run_jobs(jobs, worker, threads: int, label: str, progress: bool) -> list:
    """worker(job) for every job, in job order, on ``threads`` processes."""
    results = []
    with ProcessPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for out in pool.map(worker, jobs, chunksize=4) if pool else map(worker, jobs):
            results.append(out)
            if progress and len(results) % 50 == 0:
                print(f"  {label}: {len(results)}/{len(jobs)}", file=sys.stderr)
    return results


def _boundary_batch(config: RunConfig) -> tuple[list[float], list[float]]:
    """Crossing heights and min-|zeta| diagnostics for boundaries
    m = 1..m_count+1, where m_count strips fit under t_max (or m_max if
    set).  One batch: with t_max, its last crossing must pass t_max, which
    holds while every crossing stays above m * SLOPE - 2.5."""
    last = _boundary_estimate(config.t_max, config.m_max)
    traced = _run_jobs(
        range(1, last + 1), strip_boundary, config.threads, "boundaries", config.progress
    )
    if config.m_max is not None:
        count = config.m_max
    else:
        if traced[-1][0] <= config.t_max:
            raise NotSpecial(
                f"boundary {last} crosses at {traced[-1][0]}, not above t_max "
                f"{config.t_max}: more than 2.5 below {last} * SLOPE"
            )
        count = sum(1 for crossing, _ in traced if crossing <= config.t_max) - 1
    ordered = [crossing for crossing, _ in traced[: count + 1]]
    if any(later <= earlier for earlier, later in zip(ordered, ordered[1:])):
        raise NotSpecial("boundary crossings are not strictly increasing")
    return ordered, [min_abs for _, min_abs in traced[: count + 1]]


def _gram_csv(t_max: float) -> str:
    table = default_table()
    n_last = table.extend_to_height(t_max)
    series = gap_ratio_series(n_last)
    lines = [GRAM_HEADER]
    g_first = table.point(-1)
    lines.append(f"-1,{fmt(g_first)},,,")
    for rec in series:
        lines.append(
            f"{rec.n},{fmt(rec.height)},{fmt(rec.gap)},"
            f"{fmt(rec.ratio_plain)},{fmt(rec.ratio_geometric)}"
        )
    return "\n".join(lines) + "\n"


def _strips_csv(strips: Sequence[Strip]) -> str:
    lines = [STRIPS_HEADER]
    for s in strips:
        lines.append(
            f"{s.m},{fmt(s.bottom)},{fmt(s.top)},{fmt(s.width)},{s.gram_count},"
            f"{len(s.zeros)},{s.primary_index},{fmt(s.primary_height)},"
            f"{fmt(s.primary_stat)}"
        )
    return "\n".join(lines) + "\n"


def _zeros_csv(strips: Sequence[Strip]) -> str:
    lines = [ZEROS_HEADER]
    for s in strips:
        for z in s.zeros:
            lines.append(f"{z.j},{fmt(z.t)},{z.strip_m}")
    return "\n".join(lines) + "\n"


def _boundaries_csv(boundaries: Sequence[float], min_abs: Sequence[float]) -> str:
    table = default_table()
    lines = [BOUNDARY_HEADER]
    for i, (crossing, mabs) in enumerate(zip(boundaries, min_abs), start=1):
        idx = table.index_near(crossing, 1e-6)
        if idx is None:
            raise NotSpecial(f"boundary {i} at {crossing} matches no Gram point")
        lines.append(f"{i},{2 * i},{fmt(crossing)},{idx},{fmt(mabs)}")
    return "\n".join(lines) + "\n"


def _emit(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    if target.exists() and target.read_text(encoding="utf-8") == text:
        return
    write_atomic(target, text.encode("utf-8"))


def parse_strips_csv(strips_text: str, zeros_text: str) -> list[Strip]:
    """Rebuild Strip records from the cached CSVs.  Widths are recomputed
    from the parsed endpoints; the emitted width column is only checked to
    the 12-significant-digit emission grid."""
    zero_rows: dict[int, list[ZeroRecord]] = {}
    for line in zeros_text.strip().splitlines()[1:]:
        j_s, t_s, m_s = line.split(",")
        zero_rows.setdefault(int(m_s), []).append(
            ZeroRecord(j=int(j_s), t=float(t_s), strip_m=int(m_s))
        )
    strips = []
    for line in strips_text.strip().splitlines()[1:]:
        parts = line.split(",")
        m = int(parts[0])
        strip = Strip(
            m=m,
            bottom=float(parts[1]),
            top=float(parts[2]),
            gram_count=int(parts[4]),
            zeros=tuple(zero_rows.get(m, ())),
            primary_index=int(parts[6]),
            primary_height=float(parts[7]),
        )
        if abs(strip.width - float(parts[3])) > 1e-7 * max(1.0, abs(strip.width)):
            raise CacheInvalid(f"strip {m}: width column inconsistent with bounds")
        strip.validate()
        strips.append(strip)
    return strips


def compute(config: RunConfig) -> ComputeResult:
    """Populate the cache (Gram table, boundaries, zeros, strips) and emit
    gram.csv / strips.csv / zeros.csv.  A warm, matching cache short-circuits
    all computation."""
    cache = config.cache()
    if cache.is_complete():
        strips = parse_strips_csv(cache.load("strips"), cache.load("zeros"))
        boundaries = [s.bottom for s in strips] + [strips[-1].top]
        for name in ("gram", "strips", "zeros"):
            _emit(config.out_dir, f"{name}.csv", cache.load(name))
        return ComputeResult(strips=strips, boundaries=boundaries, from_cache=True)

    boundaries, min_abs = _boundary_batch(config)
    m_count = len(boundaries) - 1
    if config.progress:
        print(f"  {m_count} strips, top {boundaries[-1]:.3f}", file=sys.stderr)

    primary = partial(primary_zero_of_strip, check_containment=False)
    primaries = [
        zero.t
        for zero in _run_jobs(
            range(1, m_count + 1), primary, config.threads, "primaries", config.progress
        )
    ]

    table = default_table()
    zero_jobs = [
        (m, boundaries[m - 1], boundaries[m], table.count_in(boundaries[m - 1], boundaries[m]))
        for m in range(1, m_count + 1)
    ]
    zero_lists = _run_jobs(zero_jobs, _zeros_job, config.threads, "zeros", config.progress)
    strips = build_strips(boundaries, primaries, zero_lists)

    gram_text = _gram_csv(config.t_max)
    strips_text = _strips_csv(strips)
    zeros_text = _zeros_csv(strips)
    boundaries_text = _boundaries_csv(boundaries, min_abs)

    cache.store("gram", gram_text)
    cache.store("boundaries", boundaries_text)
    cache.store("zeros", zeros_text)
    cache.store("strips", strips_text)
    _emit(config.out_dir, "gram.csv", gram_text)
    _emit(config.out_dir, "strips.csv", strips_text)
    _emit(config.out_dir, "zeros.csv", zeros_text)
    return ComputeResult(strips=strips, boundaries=boundaries)


@dataclass
class AnalysisResult:
    bottoms: analysis.LinearFit
    tops: analysis.LinearFit
    density_log: analysis.LinearFit
    density_linear: analysis.LinearFit
    primary: analysis.PrimaryStats
    bottom_dev: analysis.DeviationSeries
    density_dev: analysis.DeviationSeries
    arches: list[analysis.ArchPrediction]
    branch_report: list[analysis.BranchSpacing]

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
        ]
        q1 = [b.mean_gap for b in self.branch_report if b.q == 1 and b.mean_gap]
        q2 = [b.mean_gap for b in self.branch_report if b.q == 2 and b.mean_gap]
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
    """Regressions and deviation series over the cached strips; writes
    fits.json, deviations.csv, arches.csv."""
    cache = config.cache()
    strips = parse_strips_csv(cache.load("strips"), cache.load("zeros"))
    bottoms = analysis.fit_bottoms(strips)
    tops = analysis.fit_tops(strips)
    density_log, density_dev = analysis.fit_density(strips)
    density_linear = analysis.fit_density_linear(strips)
    primary = analysis.primary_stats(strips)
    bottom_dev = analysis.bottom_deviation_series(strips)

    m_hi = float(strips[-1].m)
    q_max = 3 if m_hi >= 100 else 2
    p_max = max(4, math.ceil(q_max * math.log2(m_hi / math.log(2.0))))
    arches = analysis.arch_centers(p_max, q_max, m_limit=m_hi)
    branch_report = analysis.branch_spacing_report(strips, q_max=min(q_max, 2))

    fits = {
        "bottoms": asdict(bottoms),
        "tops": asdict(tops),
        "density_log": asdict(density_log),
        "density_linear": asdict(density_linear),
        "primary_stats": asdict(primary),
    }
    config.out_dir.mkdir(parents=True, exist_ok=True)
    write_json_atomic(config.out_dir / "fits.json", fits)

    dens = dict(density_dev.records)
    lines = ["m,bottom_dev,density_dev"]
    for m, bdev in bottom_dev.records:
        lines.append(f"{m},{fmt(bdev)},{fmt(dens[m])}")
    _emit(config.out_dir, "deviations.csv", "\n".join(lines) + "\n")

    lines = ["p,q,m_center,t_center"]
    for a in arches:
        lines.append(f"{a.p},{a.q},{fmt(a.m_center)},{fmt(a.t_center)}")
    _emit(config.out_dir, "arches.csv", "\n".join(lines) + "\n")
    return AnalysisResult(
        bottoms=bottoms,
        tops=tops,
        density_log=density_log,
        density_linear=density_linear,
        primary=primary,
        bottom_dev=bottom_dev,
        density_dev=density_dev,
        arches=arches,
        branch_report=branch_report,
    )
