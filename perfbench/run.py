"""zetastrips census benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout; the package is imported from
./src.  Every timed pass is a fresh interpreter (perfbench/child.py) with
an empty cache directory under ./.perfbench_work, because the contour
`lru_cache`s and the module-level Gram table would otherwise serve a second
in-process pass from memory.  Load is closed-loop from this one process:
the next pass starts when the previous one has ended, and every pass runs
on one worker.  A pooled census (t_max = 2e3 on two workers) was left out:
its wall varied by 14% between runs on a 2-core machine.

Workloads (units in brackets):
    census-1e3-serial  cold compute, t_max = 1e3, one worker [strips]
    top-band           8 strips of m = 1000..1101 per pass through the public
                       layer functions; the seed shuffles the band and each
                       pass takes the next 8, so no strip repeats [strips]
    warm-reports       rounds of warm compute, analyze and plot (the ten
                       figures the 1e3 census covers) through cli.main over
                       a t_max = 1e3 cache built in set-up [rounds]

With --trace 0 the last line of output carries the end-to-end metrics:
    wall_s       mean wall of one timed unit of work: a cold compute, a
                 band pass, a report round
    work_per_s   units completed per second of timed wall
    cpu_s        mean user + system CPU of one timed unit
    setup_s      median over set-ups in the run of interpreter start,
                 imports and preparation (Gram table to 1.1e4 for top-band,
                 the cold census for warm-reports)
    peak_rss_mb  largest max RSS of this process or any child

Means, not medians: on a shared 2-vCPU machine the speed switches, by up
to 60%, between states that last seconds to minutes.  Unit times are then
bimodal, and their median jumps between the modes where the mean moves
with the share of slow time.  Top-band passes also hold different strips,
and their mean estimates the band's cost.

With --trace 1 it carries the per-layer metrics of traced passes
(perfbench/layers.py) that alternate with untraced ones: two of each for
census and top-band, 40 rounds of each for warm-reports.  The two traced
passes must give identical counts.  A layer the workload does not reach
reads 0.

Every pass is checked against perfbench/refs (captured by make_refs.py):
artifact sha256s and zeros on the 12-digit grid for the census; bottom,
top, zero count, primary index and zeros per strip for top-band; the
fits.json sha256 each warm round.  A cold pass served from cache, a warm
round that rewrites the cache, an exception, or a reference mismatch is a
failed operation.  A traced run that records no evaluator calls or misses
a pipeline stage, or whose warm rounds call the evaluator, aborts without
a result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
TOP_BAND = (1000, 1101)
BAND_SAMPLE = 8
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0

# workload name -> child.py mode
WORKLOADS = {"census-1e3-serial": "census", "top-band": "band", "warm-reports": "warm"}
STAGES = ("boundaries", "primaries", "zeros")
COUNTS = ("evals", "boundary_count", "boundary_evals", "primary_count", "primary_evals",
          "scan_count", "scan_evals", "scan_zeros", "bisect_evals", "cache_bytes", "gram_points")


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


class Runner:
    def __init__(self, root: Path, name: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.name = name
        self.kind = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.passes = 0
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    # -- child processes --------------------------------------------------

    def spawn(self, args: list[str]) -> dict:
        """Run one child pass to completion and return its report."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run exceeded its time limit")
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args, "--seed", str(self.seed)],
            cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child {args[0]} timed out")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            tail = " | ".join(err.strip().splitlines()[-3:])
            return {"crashed": f"child {args[0]} exited {proc.returncode}: {tail}"}
        report = json.loads(out.strip().splitlines()[-1])
        report["setup"] = report["ready"] - started
        return report

    def tally(self, report: dict, attempted: int = 1) -> dict:
        if "crashed" in report:
            self.attempted += attempted
            self.failed += attempted
            self.errors.append(report["crashed"])
        else:
            self.attempted += report["attempted"]
            self.failed += report["failed"]
            self.errors += report["errors"]
        return report

    def census_pass(self, traced: bool = False) -> dict:
        self.passes += 1
        work = self.work / f"pass-{self.passes}"
        args = ["census", "--work", str(work)]
        try:
            return self.tally(self.spawn(args + (["--trace"] if traced else [])))
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def band_sample(self, index: int) -> list[int]:
        band = list(range(TOP_BAND[0], TOP_BAND[1] + 1))
        random.Random(self.seed).shuffle(band)
        start = index * BAND_SAMPLE % (len(band) - BAND_SAMPLE + 1)
        return sorted(band[start:start + BAND_SAMPLE])

    def band_pass(self, traced: bool = False, index: int | None = None) -> dict:
        sample = self.band_sample(self.passes if index is None else index)
        self.passes += 1
        args = ["band", "--strips", ",".join(map(str, sample))]
        report = self.spawn(args + (["--trace"] if traced else []))
        return self.tally(report, attempted=BAND_SAMPLE)

    def warm_child(self, traced: bool) -> dict:
        work = self.work / "warm"
        args = ["warm", "--work", str(work), "--seconds", repr(self.seconds)]
        try:
            return self.tally(self.spawn(args + (["--trace"] if traced else [])))
        finally:
            shutil.rmtree(work, ignore_errors=True)

    # -- measurement ------------------------------------------------------

    def timed_passes(self, one_pass) -> list[dict]:
        """Closed loop of fresh passes while the next one, at the median
        duration so far, would end less than half a pass past the measuring
        window; on average the passes then fill the window."""
        reports, durations = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            reports.append(one_pass())
            durations.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(durations) / 2 > self.seconds:
                return reports

    def end_to_end(self) -> dict:
        kind = self.kind
        if kind == "warm":
            reports = [self.warm_child(traced=False)]
        else:
            reports = self.timed_passes(self.census_pass if kind == "census" else self.band_pass)
        good = [r for r in reports if "crashed" not in r]
        self.setups += [r["setup"] for r in good]
        while kind != "warm" and len(self.setups) < MIN_SETUPS:
            self.setups.append(self.require(self.spawn(["setup", "--kind", kind]))["setup"])
        walls = [w for r in good for w in r["walls"]]
        cpus = [c for r in good for c in r["cpus"]]
        units = sum(r["units"] for r in good)
        if not walls:
            raise BenchError("no pass completed: " + "; ".join(self.errors[:3]))
        return {
            "wall_s": (statistics.fmean(walls), "s"),
            "work_per_s": (units / sum(walls), "1/s"),
            "cpu_s": (statistics.fmean(cpus), "s"),
            "setup_s": (statistics.median(self.setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def per_layer(self) -> dict:
        """Untraced and traced units alternate, so that swings in machine
        speed hit both sides of trace.overhead_frac alike."""
        kind = self.kind
        if kind == "warm":
            report = self.require(self.warm_child(traced=True))
            base = statistics.fmean(report["walls"])
            traced_wall = statistics.fmean(report["traced_walls"])
            rounds = len(report["traced_walls"])
            busy = statistics.fmean(report["cpus"]) / base
            layers = report["layers"]
        else:
            one = self.census_pass if kind == "census" else lambda traced=False: self.band_pass(traced, 0)
            plain, traced = [], []
            for _ in range(2):
                plain.append(self.require(one()))
                traced.append(self.require(one(traced=True)))
            base = statistics.fmean(r["walls"][0] for r in plain)
            traced_wall = statistics.fmean(r["walls"][0] for r in traced)
            rounds = 1
            busy = statistics.fmean(r["cpus"][0] for r in plain) / base
            layers = traced[0]["layers"]
            other = traced[1]["layers"]
            differ = [k for k in COUNTS if layers[k] != other[k]]
            if differ:
                raise BenchError("counts differ between two traced passes: " + ", ".join(differ))
        self.check_hooks(layers, kind)
        return layer_metrics(layers, rounds, busy, traced_wall / base - 1.0)

    def require(self, report: dict) -> dict:
        if "crashed" in report:
            raise BenchError(report["crashed"])
        return report

    def check_hooks(self, layers: dict, kind: str) -> None:
        """Zero counts where work must have happened mean a wrapped name no
        longer sits on the call path: fail instead of reporting zeros."""
        missing = []
        if kind in ("census", "band"):
            for key in ("evals", "boundary_count", "primary_count", "scan_count"):
                if not layers[key]:
                    missing.append(key)
        if kind == "census":
            missing += [f"stage {s}" for s in STAGES if s not in layers["stages"]]
        if kind == "warm":
            if layers["evals"]:
                raise BenchError(f"warm rounds made {layers['evals']} evaluator calls")
            for key in ("analyze_s", "render_s", "load_s"):
                if not layers[key]:
                    missing.append(key)
        if missing:
            raise BenchError("traced run recorded nothing for: " + ", ".join(missing))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(L: dict, rounds: int, busy: float, overhead: float) -> dict:
    """Per-layer metrics from one traced pass.  For warm-reports the cache
    and report figures are per round."""
    stages = L["stages"]
    return {
        "zeta.calls": (L["evals"], "count"),
        "zeta.self_s": (L["eval_s"], "s"),
        "zeta.zd_us.t1e2": (L["zd_us.t1e2"], "us"),
        "zeta.zd_us.t1e3": (L["zd_us.t1e3"], "us"),
        "zeta.zd_us.t1e4": (L["zd_us.t1e4"], "us"),
        "zeta.hz_us.t1e4": (L["hz_us.t1e4"], "us"),
        "contour.boundary_s": (L["boundary_s"], "s"),
        "contour.primary_s": (L["primary_s"], "s"),
        "contour.evals_per_boundary": (_ratio(L["boundary_evals"], L["boundary_count"]), "count"),
        "contour.evals_per_primary": (_ratio(L["primary_evals"], L["primary_count"]), "count"),
        "contour.self_s": (
            L["boundary_s"] + L["primary_s"] - L["boundary_eval_s"] - L["primary_eval_s"], "s"
        ),
        "strips.scan_s": (L["scan_s"], "s"),
        "strips.evals_per_strip": (_ratio(L["scan_evals"], L["scan_count"]), "count"),
        "strips.evals_per_zero": (_ratio(L["scan_evals"], L["scan_zeros"]), "count"),
        "strips.bisect_evals_per_zero": (_ratio(L["bisect_evals"], L["scan_zeros"]), "count"),
        "gram.extend_s": (L["gram_extend_s"], "s"),
        "gram.points": (L["gram_points"], "count"),
        "pipeline.stage_s.boundaries": (stages.get("boundaries", 0.0), "s"),
        "pipeline.stage_s.primaries": (stages.get("primaries", 0.0), "s"),
        "pipeline.stage_s.zeros": (stages.get("zeros", 0.0), "s"),
        "pipeline.busy_frac": (busy, "ratio"),
        "cache.store_s": (L["store_s"] / rounds, "s"),
        "cache.load_s": (L["load_s"] / rounds, "s"),
        "cache.bytes": (L["cache_bytes"] / rounds, "bytes"),
        "analysis.analyze_s": (statistics.median(L["analyze_s"]) if L["analyze_s"] else 0.0, "s"),
        "plot.render_s": (sum(L["render_s"]) / rounds, "s"),
        "plot.svg_bytes": (L["svg_bytes"] / rounds, "bytes"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zetastrips" / "__init__.py").is_file():
        print(f"perfbench: no src/zetastrips under {root}; run from a checkout", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = runner.per_layer() if runner.trace else runner.end_to_end()
    except BenchError as exc:
        runner.errors.append(str(exc))
        metrics = None
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            runner.work.parent.rmdir()
        except OSError:
            pass
    for line in runner.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    if metrics is None:
        return 1
    correct = runner.failed == 0 and runner.attempted > 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
