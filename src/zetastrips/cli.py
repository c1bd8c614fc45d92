"""Command-line front end: compute, analyze, plot, verify.

Exit codes: 0 success, 1 I/O error, 2 math anomaly (any package error
other than a missing or invalid cache: a contour or count check failed),
3 missing inputs (cache or analysis artifacts absent), 4 usage error,
5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import pipeline
from .cache import KINDS
from .contour import primary_zero_of_strip, special_gram_point
from .errors import CacheInvalid, CacheMissing, DomainError, ZetaStripsError
from .gram import gram_point
from .pipeline import RunConfig
from .strips import find_zeros
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


def _read_config_file(path: Path) -> dict[str, str]:
    """key = value lines; '#' starts a comment; unknown keys rejected."""
    known = {"t_max", "m_max", "threads", "out", "cache"}
    values: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = value
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    file_vals: dict[str, str] = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {path} not found")
        file_vals = _read_config_file(path)

    def pick(flag_value, key: str, cast):
        if flag_value is not None:
            return flag_value
        if key in file_vals:
            return cast(file_vals[key])
        return None

    t_max = pick(args.t_max, "t_max", float)
    m_max = pick(args.m_max, "m_max", int)
    threads = pick(args.threads, "threads", int)
    out = pick(args.out, "out", str)
    cache = pick(args.cache, "cache", str)
    return RunConfig(
        t_max=t_max if t_max is not None else 1e4,
        m_max=m_max,
        threads=threads if threads is not None else 1,
        out_dir=Path(out) if out is not None else Path("out"),
        cache_dir=Path(cache) if cache is not None else None,
        progress=not args.quiet,
    )


def cmd_compute(config: RunConfig) -> int:
    t0 = time.time()
    result = pipeline.compute(config)
    source = "cache" if result.from_cache else "fresh run"
    print(
        f"computed {len(result.strips)} strips up to t = {result.boundaries[-1]:.6f} "
        f"({source}, {time.time() - t0:.1f} s)"
    )
    print(f"artifacts in {config.out_dir}: gram.csv strips.csv zeros.csv")
    return 0


def cmd_analyze(config: RunConfig) -> int:
    result = pipeline.analyze(config)
    for line in result.summary_lines():
        print(line)
    print(f"artifacts in {config.out_dir}: fits.json deviations.csv arches.csv")
    return 0


def _load_csv_columns(path: Path) -> dict[str, list[float]]:
    text = path.read_text(encoding="utf-8").strip().splitlines()
    header = text[0].split(",")
    cols: dict[str, list[float]] = {name: [] for name in header}
    for line in text[1:]:
        for name, field in zip(header, line.split(",")):
            cols[name].append(float(field) if field else math.nan)
    return cols


FIGURE_RANGES = {3: (1, 70), 4: (70, 140), 5: (140, 280), 6: (280, 560), 7: (560, 1102)}
DENSITY_RANGES = {11: (1, 70), 12: (70, 140), 13: (140, 280), 14: (280, 560), 15: (560, 1102)}


def _gram_chart(out: Path) -> Chart:
    cols = _load_csv_columns(out / "gram.csv")
    chart = Chart(
        title="Gram gap convergence to the spacing model",
        xlabel="Gram point number n",
        ylabel="|1 - gap / model|",
        xlog=True,
        ylog=True,
    )
    for label, column in (("plain", "gap_ratio"), ("geometric mean", "gap_ratio_geo")):
        pairs = [
            (n, abs(r))
            for n, r in zip(cols["n"], cols[column])
            if n >= 1 and not math.isnan(r) and r != 0.0
        ]
        chart.add_series(label, [p[0] for p in pairs], [p[1] for p in pairs])
    return chart


def _bottoms_chart(out: Path) -> Chart:
    cols = _load_csv_columns(out / "strips.csv")
    fit = json.loads((out / "fits.json").read_text(encoding="utf-8"))["bottoms"]
    ms = cols["m"]
    line_x = [ms[0], ms[-1]]
    line_y = [fit["intercept"] + fit["slope"] * x for x in line_x]
    chart = Chart(
        title="Strip bottom height vs strip number",
        xlabel="strip number m",
        ylabel="bottom height t",
        line=(line_x, line_y),
    )
    chart.add_series("", ms, cols["bottom"])
    return chart


def _density_chart(out: Path) -> Chart:
    cols = _load_csv_columns(out / "strips.csv")
    fit = json.loads((out / "fits.json").read_text(encoding="utf-8"))["density_log"]
    ms = cols["m"]
    dens = [n / w for n, w in zip(cols["n_zeros"], cols["width"])]
    line_x = list(np.geomspace(ms[0], ms[-1], 64))
    line_y = [fit["intercept"] + fit["slope"] * math.log(x) for x in line_x]
    chart = Chart(
        title="Zero density per strip vs strip number",
        xlabel="strip number m (log)",
        ylabel="zeros / width",
        xlog=True,
        line=(line_x, line_y),
    )
    chart.add_series("", ms, dens)
    return chart


def _deviation_chart(out: Path, figure: int) -> Chart:
    """Bottom-height (FIGURE_RANGES) or zero-density (DENSITY_RANGES)
    deviations of one strip range, with the arch centres inside it."""
    if figure in FIGURE_RANGES:
        (lo, hi), column, title = FIGURE_RANGES[figure], "bottom_dev", "Bottom-height"
    else:
        (lo, hi), column, title = DENSITY_RANGES[figure], "density_dev", "Zero-density"
    cols = _load_csv_columns(out / "deviations.csv")
    xs = [m for m in cols["m"] if lo <= m <= hi]
    ys = [v for m, v in zip(cols["m"], cols[column]) if lo <= m <= hi]
    if not xs:
        last = int(max(cols["m"], default=0))
        raise CacheMissing(
            f"figure {figure} plots strips {lo}..{hi}, but the census in {out} "
            f"ends at strip {last}; only a larger --t-max reaches that range"
        )
    arch_cols = _load_csv_columns(out / "arches.csv")
    markers = [m for m in arch_cols["m_center"] if lo <= m <= hi]
    chart = Chart(
        title=f"{title} deviation, strips {lo}..{hi}",
        xlabel="strip number m",
        ylabel="deviation",
        vmarkers=markers,
    )
    chart.add_series("", xs, ys)
    return chart


def _strips_chart(column: str, title: str, xlabel: str, ylabel: str, xlog: bool = False):
    """Builder of a chart of one strips.csv column against m."""

    def build(out: Path) -> Chart:
        cols = _load_csv_columns(out / "strips.csv")
        chart = Chart(title=title, xlabel=xlabel, ylabel=ylabel, xlog=xlog)
        chart.add_series("", cols["m"], cols[column])
        return chart

    return build


_DEVIATION_INPUTS = ("deviations.csv", "arches.csv")

# figure number -> (artifacts it reads from the output directory, chart builder)
FIGURES = {
    1: (("gram.csv",), _gram_chart),
    2: (("strips.csv", "fits.json"), _bottoms_chart),
    **{f: (_DEVIATION_INPUTS, partial(_deviation_chart, figure=f)) for f in FIGURE_RANGES},
    8: (("strips.csv",), _strips_chart(
        "n_zeros", "Zeros per strip vs strip number", "strip number m (log)",
        "zero count", xlog=True,
    )),
    9: (("strips.csv", "fits.json"), _density_chart),
    10: (("strips.csv",), _strips_chart(
        "width", "Strip width on the critical line vs strip number",
        "strip number m (log)", "width", xlog=True,
    )),
    **{f: (_DEVIATION_INPUTS, partial(_deviation_chart, figure=f)) for f in DENSITY_RANGES},
    16: (("strips.csv",), _strips_chart(
        "primary_stat", "Relative position of the primary zero in its strip",
        "strip number m", "(primary index - 0.5) / zero count",
    )),
}


def cmd_plot(config: RunConfig, figure: int) -> int:
    if figure not in FIGURES:
        raise UsageError(f"figure must be 1..{len(FIGURES)}, got {figure}")
    inputs, build = FIGURES[figure]
    out = config.out_dir
    for name in inputs:
        if not (out / name).exists():
            raise CacheMissing(f"{name} missing from {out}; run compute/analyze first")
    chart = build(out)  # its inputs were found in out, so out exists
    target = out / f"fig{figure}.svg"
    chart.render(target)
    print(f"wrote {target}")
    return 0


def _verify_checks(config: RunConfig) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def run(name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # deliberate: each check reports, never aborts
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, ok, detail))

    def zeta_at_two():
        val = zeta(ComplexPoint(2.0, 0.0)).value
        err = abs(val - math.pi**2 / 6.0)
        return err < 1e-10, f"|zeta(2) - pi^2/6| = {err:.2e}"

    def conjugate_symmetry():
        rng = np.random.default_rng(20240)
        worst = 0.0
        for _ in range(25):
            sigma = rng.uniform(-2.0, 8.0)
            t = rng.uniform(7.0, 5000.0)
            if abs(complex(sigma, t) - 1.0) < 0.5:
                continue
            a = zeta(ComplexPoint(sigma, t)).value
            b = zeta(ComplexPoint(sigma, -t)).value
            worst = max(worst, abs(b - a.conjugate()))
        return worst < 1e-10, f"max |zeta(conj s) - conj zeta(s)| = {worst:.2e}"

    def derivative_check():
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

    def gram_minus_one():
        g = gram_point(-1)
        err = abs(g - 9.6669080561)
        return err < 1e-6, f"|g(-1) - 9.6669080561| = {err:.2e}"

    def first_zero():
        zeros = find_zeros(10.0, 15.0)
        if len(zeros) != 1:
            return False, f"expected 1 zero in (10, 15), found {len(zeros)}"
        err = abs(zeros[0].t - 14.134725)
        return err < 1e-5, f"|zero - 14.134725| = {err:.2e}"

    def strip_one_identity():
        bottom = special_gram_point(1)
        top = special_gram_point(2)
        zr = find_zeros(bottom, top, 1)
        primary = primary_zero_of_strip(1)
        ok = (
            abs(bottom - 9.6669080561) < 1e-6
            and len(zr) == 1
            and bottom < primary.t < top
        )
        return ok, (
            f"bottom = {bottom:.10f}, zeros = {len(zr)}, primary t = {primary.t:.6f}"
        )

    def cache_integrity():
        cache = config.cache()
        if not cache.dir.exists():
            return True, "no cache present (skipped)"
        problems = []
        for kind in KINDS:
            if not cache.payload_path(kind).exists():
                continue
            try:
                cache.check(kind)
            except (CacheInvalid, CacheMissing) as exc:
                problems.append(f"{kind}: {exc}")
        if problems:
            return False, "; ".join(problems)
        return True, "all present entries pass checksum"

    run("zeta_at_two", zeta_at_two)
    run("conjugate_symmetry", conjugate_symmetry)
    run("derivative_vs_finite_difference", derivative_check)
    run("gram_point_minus_one", gram_minus_one)
    run("first_zero_bisection", first_zero)
    run("strip_one_identity", strip_one_identity)
    run("cache_integrity", cache_integrity)
    return checks


def cmd_verify(config: RunConfig) -> int:
    t0 = time.time()
    checks = _verify_checks(config)
    failures = []
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)
    print(f"verify completed in {time.time() - t0:.1f} s")
    if failures:
        print(f"failing checks: {', '.join(failures)}")
        return EXIT_VERIFY
    return 0


def make_parser() -> _Parser:
    parser = _Parser(prog="zetastrips", description=__doc__)
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--t-max", dest="t_max", type=float, default=None)
    parser.add_argument("--m-max", dest="m_max", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument("--cache", default=None, help="cache directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("compute", help="populate the cache and emit CSV artifacts")
    sub.add_parser("analyze", help="fits, deviations, arch predictions")
    plot = sub.add_parser("plot", help="render one figure as SVG")
    plot.add_argument("--figure", type=int, required=True)
    sub.add_parser("verify", help="quick oracle and invariant battery")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        try:
            config = build_config(args)
        except DomainError as exc:
            raise UsageError(str(exc)) from exc
        if args.command == "compute":
            return cmd_compute(config)
        if args.command == "analyze":
            return cmd_analyze(config)
        if args.command == "plot":
            return cmd_plot(config, args.figure)
        if args.command == "verify":
            return cmd_verify(config)
        raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CacheMissing, CacheInvalid) as exc:
        print(f"missing/invalid inputs: {exc}", file=sys.stderr)
        if args.command != "plot":  # plot messages name their own remedy
            print("hint: run 'zetastrips compute' first", file=sys.stderr)
        return EXIT_MISSING
    except ZetaStripsError as exc:
        print(f"math anomaly: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
