"""One benchmark pass in a fresh interpreter.

run.py starts this script once per pass, so that the package's in-process
state -- the contour `lru_cache`s and the module-level Gram table -- starts
empty every time.  The pass prints one JSON object as
the last line of its standard output:

    ready     time.monotonic() when set-up ended (run.py subtracts its
              spawn time to get the set-up seconds)
    walls     wall seconds of each untraced timed unit (one cold compute,
              one band pass, one report round)
    cpus      CPU seconds (process + reaped children) of each of them
    units     strips or report rounds completed
    attempted, failed, errors
    layers    raw tracer totals and microbenchmarks, with --trace
    traced_walls  walls of the traced rounds, warm mode with --trace

Modes:
    census  --work DIR              cold compute to the t_max of refs/census-1e3
    band    --strips m1,m2,...      the given top-band strips
    warm    --work DIR --seconds S  report rounds over that census
    setup   --kind census|band      set-up only, for extra set-up samples
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
TOP_BAND = (1000, 1101)
GRAM_HEIGHT = 1.1e4
# Figures 5-7 and 13-15 plot strip ranges that start above m = 109, the last
# strip of the t_max = 1e3 census, and exit 3 there by design; the warm
# rounds render the other ten.
FIGURES = (1, 2, 3, 4, 8, 9, 10, 11, 12, 16)
CENSUS_REF = "census-1e3"
WARM_TRACED_ROUNDS = 40
_clock = time.perf_counter


def _module(name: str):
    # `zetastrips.zeta` as a package attribute is the function, not the module.
    return importlib.import_module(f"zetastrips.{name}")


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fmt(x: float) -> str:
    return f"{x:.12g}"


def on_grid(value: str | float, ref: str) -> bool:
    """True when value and ref agree to within one unit of the 12th
    significant digit, the grid every artifact float is emitted on."""
    a, b = float(value), float(ref)
    if a == b:
        return True
    unit = 10.0 ** (math.floor(math.log10(abs(b))) - 11) if b else 1e-300
    return abs(a - b) <= unit * (1 + 1e-9)


def load_ref(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text(encoding="utf-8"))


# --- correctness gates ------------------------------------------------------


def check_census(out_dir: Path, ref: dict) -> list[str]:
    errors = []
    for name in ("strips", "gram"):
        path = out_dir / f"{name}.csv"
        if not path.is_file() or sha256(path) != ref[f"{name}_sha256"]:
            errors.append(f"{name}.csv differs from the reference")
    zeros_path = out_dir / "zeros.csv"
    if not zeros_path.is_file():
        return errors + ["zeros.csv missing"]
    rows = zeros_path.read_text(encoding="utf-8").strip().splitlines()[1:]
    values = [row.split(",")[1] for row in rows]
    if len(values) != len(ref["zeros"]):
        errors.append(f"{len(values)} zeros, reference {len(ref['zeros'])}")
    else:
        bad = [j for j, (v, r) in enumerate(zip(values, ref["zeros"]), 1) if not on_grid(v, r)]
        if bad:
            errors.append(f"{len(bad)} zeros off the reference grid, first j = {bad[0]}")
    return errors


def check_band(m: int, row: dict, ref: dict) -> list[str]:
    want = ref["strips"][str(m)]
    errors = []
    for key in ("n_zeros", "primary_index"):
        if row[key] != want[key]:
            errors.append(f"strip {m}: {key} {row[key]} vs reference {want[key]}")
    for key in ("bottom", "top"):
        if not on_grid(row[key], want[key]):
            errors.append(f"strip {m}: {key} {row[key]} vs reference {want[key]}")
    if row["n_zeros"] == want["n_zeros"] and not all(
        on_grid(v, r) for v, r in zip(row["zeros"], want["zeros"])
    ):
        errors.append(f"strip {m}: zeros off the reference grid")
    return errors


# --- workloads --------------------------------------------------------------


def band_strip(m: int, table) -> dict:
    """Strip m through the public layer functions, serially."""
    contour, strips = _module("contour"), _module("strips")
    bottom = contour.special_gram_point(m)
    top = contour.special_gram_point(m + 1)
    primary = contour.primary_zero_of_strip(m, check_containment=False)
    zeros = strips.find_zeros(bottom, top, table.count_in(bottom, top), strip_m=m)
    diffs = [abs(z.t - primary.t) for z in zeros]
    return {
        "bottom": fmt(bottom),
        "top": fmt(top),
        "n_zeros": len(zeros),
        "primary_index": diffs.index(min(diffs)) + 1,
        "zeros": [fmt(z.t) for z in zeros],
    }


def run_census(args, report: dict, tracer) -> None:
    pipeline = _module("pipeline")
    ref = load_ref(CENSUS_REF)
    work = Path(args.work)
    cache_dir = work / "cache"
    if cache_dir.exists() and any(cache_dir.iterdir()):
        report["errors"].append(f"cold run started with a non-empty cache in {cache_dir}")
    config = pipeline.RunConfig(t_max=ref["t_max"], out_dir=work / "out", cache_dir=cache_dir)
    report["ready"] = time.monotonic()
    if tracer:
        tracer.install()
    c0, t0 = cpu_now(), _clock()
    try:
        result = pipeline.compute(config)
    finally:
        wall, cpu = _clock() - t0, cpu_now() - c0
        if tracer:
            tracer.remove()
    report["walls"].append(wall)
    report["cpus"].append(cpu)
    report["attempted"] = 1
    if result.from_cache:
        report["errors"].append("cold run was served from cache")
    report["errors"] += check_census(work / "out", ref)
    report["units"] = len(result.strips)
    if len(result.strips) != ref["n_strips"]:
        report["errors"].append(f"{len(result.strips)} strips, reference {ref['n_strips']}")
    report["failed"] = int(bool(report["errors"]))


def run_band(args, report: dict, tracer) -> None:
    gram = _module("gram")
    ref = load_ref("top-band")
    table = gram.default_table()
    table.extend_to_height(GRAM_HEIGHT)
    report["ready"] = time.monotonic()
    sample = [int(m) for m in args.strips.split(",")]
    rows = {}
    if tracer:
        tracer.install()
    c0, t0 = cpu_now(), _clock()
    try:
        for m in sample:
            try:
                rows[m] = band_strip(m, table)
            except Exception as exc:  # a failed strip is a failed operation
                report["errors"].append(f"strip {m}: {type(exc).__name__}: {exc}")
    finally:
        wall, cpu = _clock() - t0, cpu_now() - c0
        if tracer:
            tracer.remove()
    report["walls"].append(wall)
    report["cpus"].append(cpu)
    failed = len(sample) - len(rows)
    for m, row in rows.items():
        errors = check_band(m, row, ref)
        report["errors"] += errors
        failed += bool(errors)
    report["attempted"] = len(sample)
    report["failed"] = failed
    report["units"] = len(rows)


def _cache_state(cache_dir: Path) -> dict:
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in sorted(cache_dir.iterdir())}


def _report_round(cli, base: list[str], figures, fits_sha: str, out: Path) -> tuple[float, float, int]:
    """One warm round: compute, analyze and every figure through cli.main.
    Returns (wall, cpu, failed commands)."""
    commands = [["compute"], ["analyze"]] + [["plot", "--figure", str(f)] for f in figures]
    sink = io.StringIO()
    c0, t0 = time.process_time(), _clock()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [cli.main(base + cmd) for cmd in commands]
    wall, cpu = _clock() - t0, time.process_time() - c0
    failed = sum(code != 0 for code in codes)
    failed += sum(not (out / f"fig{f}.svg").is_file() for f in figures)
    if sha256(out / "fits.json") != fits_sha:
        failed += 1
    return wall, cpu, failed


def run_warm(args, report: dict, tracer) -> None:
    pipeline, cli = _module("pipeline"), _module("cli")
    census_ref = load_ref(CENSUS_REF)
    fits_sha = load_ref("warm-reports")["fits_sha256"]
    work = Path(args.work)
    out, cache_dir = work / "out", work / "cache"
    config = pipeline.RunConfig(t_max=census_ref["t_max"], out_dir=out, cache_dir=cache_dir)
    if pipeline.compute(config).from_cache:
        report["errors"].append("set-up census was served from a leftover cache")
    report["errors"] += check_census(out, census_ref)
    # the set-up census is an operation of its own
    attempted, failed = 1, int(bool(report["errors"]))
    report["ready"] = time.monotonic()
    state = _cache_state(cache_dir)

    figures = list(FIGURES)
    random.Random(args.seed).shuffle(figures)
    base = ["--t-max", repr(census_ref["t_max"]), "--threads", "1", "--out", str(out),
            "--cache", str(cache_dir), "--quiet"]
    ops_per_round = 2 + len(figures)
    rewrites = bad_rounds = 0

    def one_round(traced: bool) -> None:
        nonlocal attempted, failed, rewrites, bad_rounds
        if traced:
            tracer.install()
        try:
            wall, cpu, bad = _report_round(cli, base, figures, fits_sha, out)
        finally:
            if traced:
                tracer.remove()
        bad_rounds += bool(bad)
        if _cache_state(cache_dir) != state:
            rewrites += 1
            bad += 1
        if traced:
            report["traced_walls"].append(wall)
        else:
            report["walls"].append(wall)
            report["cpus"].append(cpu)
        attempted += ops_per_round
        failed += min(bad, ops_per_round)

    if tracer:
        # alternate, so that swings in machine speed hit both sides alike
        report["traced_walls"] = []
        for i in range(2 * WARM_TRACED_ROUNDS):
            one_round(traced=bool(i % 2))
    else:
        start = _clock()
        while _clock() - start < args.seconds:
            one_round(traced=False)
    report["units"] = len(report["walls"])
    report["attempted"] = attempted
    report["failed"] = failed
    if rewrites:
        report["errors"].append(f"{rewrites} warm rounds recomputed and rewrote the cache")
    if bad_rounds:
        report["errors"].append(
            f"{bad_rounds} warm rounds had a failed command, a missing figure or a changed fits.json"
        )


def run_setup(args, report: dict, tracer) -> None:
    _module("pipeline")
    if args.kind == "band":
        _module("gram").default_table().extend_to_height(GRAM_HEIGHT)
    report["ready"] = time.monotonic()


# --- per-layer microbenchmarks ---------------------------------------------


def _per_call_us(fn, points, reps: int = 5) -> float:
    """Median over points of the mean microseconds per call."""
    samples = []
    for p in points:
        fn(p)
        t0 = _clock()
        for _ in range(reps):
            fn(p)
        samples.append((_clock() - t0) / reps * 1e6)
    return statistics.median(samples)


def microbenchmarks(seed: int) -> dict:
    """Evaluator cost per call near fixed heights, at seeded points, and a
    fresh Gram table to the evaluation ceiling."""
    zeta, gram = _module("zeta"), _module("gram")
    rng = random.Random(seed)
    out = {}
    for label, height in (("t1e2", 1e2), ("t1e3", 1e3), ("t1e4", 1e4)):
        points = [complex(rng.uniform(0.0, 1.0), height * rng.uniform(0.95, 1.05)) for _ in range(40)]
        out[f"zd_us.{label}"] = _per_call_us(zeta.zeta_with_derivative, points)
    heights = [1e4 * rng.uniform(0.95, 1.05) for _ in range(40)]
    out["hz_us.t1e4"] = _per_call_us(zeta.hardy_z, heights)
    table = gram.GramTable()
    t0 = _clock()
    n_last = table.extend_to_height(GRAM_HEIGHT)
    out["gram_extend_s"] = _clock() - t0
    out["gram_points"] = n_last + 2  # g_-1 .. g_n_last
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("census", "band", "warm", "setup"))
    parser.add_argument("--work")
    parser.add_argument("--strips")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--kind", choices=("census", "band"), default="census")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
    report = {"walls": [], "cpus": [], "units": 0, "attempted": 0, "failed": 0, "errors": []}
    runner = {"census": run_census, "band": run_band, "warm": run_warm, "setup": run_setup}
    runner[args.mode](args, report, tracer)
    if tracer:
        report["layers"] = tracer.summary()
        report["layers"].update(microbenchmarks(args.seed))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
