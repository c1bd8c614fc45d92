"""Command-line front end: compute, analyze, plot, verify.

``plot`` needs only compute's artifacts: it reads them through the census
parsers compute, analyze and verify use, and draws each fit, deviation
series and arch centre as analyze computes and writes it.

Exit codes: 0 success, 1 I/O error, 2 math anomaly (any package error
other than a CacheMissing: a contour or count check failed), 3 missing
inputs (CacheMissing and its subclass CacheInvalid: a cache entry or
artifact absent, invalid or unparsable, a census too small for a fit or for
analyze, or a figure range the census does not reach), 4 usage error,
5 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from functools import cache, partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import analysis, pipeline
from .cache import KINDS, round12
from .contour import ZERO_RADIUS, primary_zero_of_strip, special_gram_point
from .errors import CacheInvalid, CacheMissing, DomainError, ZetaStripsError
from .gram import gram_point
from .pipeline import RunConfig
from .strips import Strip, find_zeros
from .svgfig import Chart
from .zeta import ComplexPoint, zeta

EXIT_IO = 1
EXIT_MATH = 2
EXIT_MISSING = 3
EXIT_USAGE = 4
EXIT_VERIFY = 5

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the exit-code taxonomy
    reserves 2 for math anomalies, so usage errors are rerouted to 4."""

    def error(self, message: str):
        raise UsageError(message)


# config key (and flag dest) -> (RunConfig field, parser of a file value)
CONFIG_KEYS = {
    "t_max": ("t_max", float),
    "threads": ("threads", int),
    "out": ("out_dir", Path),
    "cache": ("cache_dir", Path),
}


def _read_config_file(path: Path) -> dict[str, str]:
    """key = value lines; '#' starts a comment; unknown keys rejected."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"config file {path} not found") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 ({exc})") from None
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = value
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the values a flag or the config file set, flags
    first; RunConfig's defaults fill the rest."""
    file_vals = _read_config_file(Path(args.config)) if args.config is not None else {}

    fields = {}
    for key, (field, cast) in CONFIG_KEYS.items():
        flag = getattr(args, key)
        if flag is not None:
            fields[field] = flag
        elif key in file_vals:
            try:
                fields[field] = cast(file_vals[key])
            except ValueError:
                raise UsageError(f"config key {key!r}: bad value {file_vals[key]!r}") from None
    return RunConfig(progress=not args.quiet, **fields)


def cmd_compute(config: RunConfig, args: argparse.Namespace) -> int:
    t0 = time.time()
    result = pipeline.compute(config)
    source = "cache" if result.from_cache else "fresh run"
    print(
        f"computed {len(result.strips)} strips up to t = {result.strips[-1].top:.6f} "
        f"({source}, {time.time() - t0:.1f} s)"
    )
    print(f"artifacts in {config.out_dir}: gram.csv strips.csv zeros.csv")
    return 0


def cmd_analyze(config: RunConfig, args: argparse.Namespace) -> int:
    result = pipeline.analyze(config)
    for line in result.summary_lines():
        print(line)
    print(f"artifacts in {config.out_dir}: fits.json deviations.csv arches.csv")
    return 0


def _read_input(out: Path, parse, *names: str):
    """parse(*texts) of the named artifacts in out, read in order and passed
    positionally; CacheMissing naming an absent file, CacheInvalid naming one
    that does not decode, or the first name when parse refuses the texts (its
    message names the table at fault)."""
    texts = []
    try:
        for name in names:
            texts.append((out / name).read_text(encoding="utf-8"))
        name = names[0]
        return parse(*texts)
    except FileNotFoundError:
        raise CacheMissing(f"{name} missing from {out}; run compute first") from None
    except (UnicodeDecodeError, CacheInvalid) as exc:
        raise CacheInvalid(
            f"{name} in {out} is malformed ({type(exc).__name__}: {exc}); run compute again"
        ) from None


def _census(out: Path) -> tuple[Strip, ...]:
    """The strips of strips.csv and zeros.csv in out, checked by the parser
    that compute, analyze and verify read the census with."""
    return _read_input(out, pipeline.parse_strips, "strips.csv", "zeros.csv")


def _fit_line(fit: analysis.LinearFit, ms: list[int], log: bool) -> tuple[list, list]:
    """fit, its coefficients on analyze's 12-digit grid, over ms[0]..ms[-1]:
    intercept + slope * m at both ends on a linear axis, intercept + slope * ln m
    at 64 geometric steps on a log one."""
    intercept, slope = round12([fit.intercept, fit.slope])
    xs = list(np.geomspace(ms[0], ms[-1], 64)) if log else [ms[0], ms[-1]]
    return xs, [intercept + slope * (math.log(x) if log else x) for x in xs]


def _fitted(fit):
    """fit(strips), refused as CacheMissing before it runs on fewer than 3 strips."""
    return lambda strips: fit(pipeline.require_strips(strips, 3, "need >= 3 points for a fit"))


# the strip ranges of the deviation figures 3-7 and 11-15
STRIP_RANGES = ((1, 70), (70, 140), (140, 280), (280, 560), (560, 1102))


def _gram_chart(out: Path) -> Chart:
    ns, _, _, plain, geometric = _read_input(out, pipeline.parse_gram, "gram.csv")
    # the log axes drop n <= 0 and the zero and empty (nan) ratios
    return Chart(
        title="Gram gap convergence to the spacing model",
        xlabel="Gram point number n",
        ylabel="|1 - gap / model|",
        series=[
            (label, ns, [abs(r) for r in ratios])
            for label, ratios in (("plain", plain), ("geometric mean", geometric))
        ],
        xlog=True,
        ylog=True,
    )


def _deviation_chart(out: Path, figure: int, span: tuple, series, title: str) -> Chart:
    """series(strips), analyze's deviation series on its 12-digit grid, over
    the strips in span, and the census's arch centres there."""
    lo, hi = span
    strips = _census(out)
    if strips[-1].m < lo:  # the strips are 1..m_last
        raise CacheMissing(
            f"figure {figure} plots strips {lo}..{hi}, but the census in {out} "
            f"ends at strip {strips[-1].m}; only a larger --t-max reaches that range"
        )
    xs, ys = zip(*((m, v) for m, v in series(strips) if lo <= m <= hi))
    centers = round12([a.m_center for a in analysis.census_arches(strips[-1].m)])
    return Chart(
        title=f"{title} deviation, strips {lo}..{hi}",
        xlabel="strip number m",
        ylabel="deviation",
        series=[("", xs, round12(ys))],
        vmarkers=[m for m in centers if lo <= m <= hi],
    )


def _strips_chart(out: Path, value, fit=None, **labels) -> Chart:
    """value(strip) against m, on a Chart of the given labels, and fit(strips),
    if given, drawn over it as analyze writes it."""
    strips = _census(out)
    ms = [s.m for s in strips]
    line = _fit_line(fit(strips), ms, labels.get("xlog", False)) if fit else None
    return Chart(series=[("", ms, [value(s) for s in strips])], line=line, **labels)


# figure number -> builder of its chart from the output directory
FIGURES = {
    1: _gram_chart,
    2: partial(_strips_chart, value=attrgetter("bottom"), fit=_fitted(analysis.fit_bottoms),
               title="Strip bottom height vs strip number", xlabel="strip number m",
               ylabel="bottom height t"),
    **{3 + i: partial(_deviation_chart, figure=3 + i, span=span,
                      series=analysis.bottom_deviation_series, title="Bottom-height")
       for i, span in enumerate(STRIP_RANGES)},
    8: partial(_strips_chart, value=lambda s: len(s.zeros),
               title="Zeros per strip vs strip number",
               xlabel="strip number m (log)", ylabel="zero count", xlog=True),
    9: partial(_strips_chart, value=lambda s: len(s.zeros) / s.width,
               fit=_fitted(lambda strips: analysis.fit_density(strips)[0]),
               title="Zero density per strip vs strip number",
               xlabel="strip number m (log)", ylabel="zeros / width", xlog=True),
    10: partial(_strips_chart, value=attrgetter("width"),
                title="Strip width on the critical line vs strip number",
                xlabel="strip number m (log)", ylabel="width", xlog=True),
    **{11 + i: partial(_deviation_chart, figure=11 + i, span=span,
                       series=_fitted(lambda strips: analysis.fit_density(strips)[1]),
                       title="Zero-density")
       for i, span in enumerate(STRIP_RANGES)},
    16: partial(_strips_chart, value=lambda s: round12(s.primary_stat),
                title="Relative position of the primary zero in its strip",
                xlabel="strip number m", ylabel="(primary index - 0.5) / zero count"),
}


def cmd_plot(config: RunConfig, args: argparse.Namespace) -> int:
    """Render one figure from compute's artifacts alone.  A gram.csv that parses
    but cannot be drawn (no ratio the log axes can show, or an error numpy raises
    under errstate) is CacheInvalid; render writes only at its end, so it leaves no SVG."""
    target = config.out_dir / f"fig{args.figure}.svg"
    try:
        with np.errstate(all="raise"):
            FIGURES[args.figure](config.out_dir).render(target)  # it read out, so out exists
    except (ArithmeticError, ValueError) as exc:
        raise CacheInvalid(
            f"figure {args.figure} cannot be drawn from the inputs in {config.out_dir} "
            f"({type(exc).__name__}: {exc}); run compute again"
        ) from None
    print(f"wrote {target}")
    return 0


def cmd_verify(config: RunConfig, args: argparse.Namespace) -> int:
    t0 = time.time()

    def zeta_at_two():
        val = zeta(ComplexPoint(2.0, 0.0)).value
        err = abs(val - math.pi**2 / 6.0)
        return err < 1e-10, f"|zeta(2) - pi^2/6| = {err:.2e}"

    def derivative_vs_finite_difference():
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10):
            s = ComplexPoint(rng.uniform(0.0, 6.0), rng.uniform(10.0, 2000.0))
            v = zeta(s, derivative=True)
            h = 1e-6
            fd = (
                zeta(ComplexPoint(s.sigma + h, s.t)).value
                - zeta(ComplexPoint(s.sigma - h, s.t)).value
            ) / (2.0 * h)
            worst = max(worst, abs(fd - v.derivative) / abs(v.derivative))
        return worst < 1e-6, f"max relative FD mismatch = {worst:.2e} (tol 1e-06)"

    def gram_point_minus_one():
        g = gram_point(-1)
        err = abs(g - 9.6669080561)
        return err < 1e-6, f"|g(-1) - 9.6669080561| = {err:.2e}"

    def strip_one_identity():
        bottom = special_gram_point(1)
        # CountMismatch unless strip 1 holds one zero, the first
        (first,) = find_zeros(bottom, special_gram_point(2), 1)
        primary = primary_zero_of_strip(1)  # EscapedStrip outside (bottom, top)
        err = abs(first.t - 14.134725)
        ok = abs(bottom - 9.6669080561) < 1e-6 and err < 1e-5
        return ok, (f"bottom = {bottom:.10f}, first zero = {first.t:.6f} "
                    f"(|zero - 14.134725| = {err:.2e}), primary t = {primary.t:.6f}")

    census = failed = None  # read once; a failed read fails cache_integrity alone
    try:
        if (entries := config.cache()).dir.exists():
            census = pipeline.read_census({kind: entries.load(kind) for kind in KINDS})
    except Exception as exc:  # deliberate: cache_integrity reports it
        failed = exc

    def cache_integrity():
        if failed is not None:
            raise failed
        return True, ("no cache present (skipped)" if census is None else
                      "every entry passes warm compute's checks: kind, key, checksum and tables")

    def boundary_margin():
        if census is None:
            return True, f"{'no cache present' if failed is None else 'no census read'} (skipped)"
        _, (margin, m) = census
        return margin > ZERO_RADIUS, (
            f"smallest min_abs_zeta = {margin:.3e} at m = {m} (ZERO_RADIUS {ZERO_RADIUS:g})"
        )

    failures = []
    for check in (zeta_at_two, derivative_vs_finite_difference, gram_point_minus_one,
                  strip_one_identity, cache_integrity, boundary_margin):
        try:
            ok, detail = check()
        except Exception as exc:  # deliberate: each check reports, never aborts
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {check.__name__}: {detail}")
        if not ok:
            failures.append(check.__name__)
    print(f"verify completed in {time.time() - t0:.1f} s")
    if failures:
        print(f"failing checks: {', '.join(failures)}")
        return EXIT_VERIFY
    return 0


@cache
def make_parser() -> _Parser:
    """The CLI's parser, built once per process: it depends only on
    CONFIG_KEYS and FIGURES, and parsing leaves it unchanged."""
    parser = _Parser(prog="zetastrips", description=__doc__)
    parser.add_argument("--config", help="key = value config file")
    for key, (field, cast) in CONFIG_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=cast,
                            help=f"RunConfig.{field}")
    parser.add_argument("--quiet", action="store_true", help="suppress progress")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, text in (
        ("compute", cmd_compute, "populate the cache and emit CSV artifacts"),
        ("analyze", cmd_analyze, "fits, deviations, arch predictions"),
        ("plot", cmd_plot, "render one figure as SVG"),
        ("verify", cmd_verify, "quick oracle and invariant battery"),
    ):
        sub.add_parser(name, help=text).set_defaults(run=run)
    sub.choices["plot"].add_argument(
        "--figure", type=int, required=True, choices=sorted(FIGURES)
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        try:
            config = build_config(args)
        except DomainError as exc:
            raise UsageError(str(exc)) from exc
        return args.run(config, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CacheMissing as exc:  # its message names the remedy
        print(f"missing/invalid inputs: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ZetaStripsError as exc:
        print(f"math anomaly: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
