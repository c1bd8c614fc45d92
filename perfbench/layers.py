"""Outside-in layer tracing for the zetastrips benchmark.

Nothing in the package is instrumented.  A `Tracer` replaces, for the life
of one benchmark process, the module attributes through which one layer
calls the next, and restores them on `remove()`:

- evaluator: `contour.zeta_with_derivative` and `strips.hardy_z`, the names
  the tracer and the zero scan look up at call time;
- contour: `contour._trace_from_launch`, reached by both the pipeline's
  boundary/primary jobs and the public `special_gram_point` /
  `primary_zero_of_strip`; an even launch index k is a strip boundary, an
  odd one a primary contour;
- zero scan: `strips.find_zeros` (the name the benchmark calls) and
  `pipeline.find_zeros` (the binding the zero jobs call), plus
  `strips._bisect_zero` for the bisection share;
- orchestration: `pipeline._run_jobs`, the stage runner the parent calls;
- cache: `Cache.store` and `Cache.load`;
- reports: `pipeline.analyze` (called by the CLI) and `svgfig.Chart.render`.

A name that is missing raises `MissingHook`, so a refactor that renames a
layer boundary makes the traced run fail instead of reporting zeros.

Counts are exact only in the process that holds the tracer: a forked pool
worker's counts never reach it, so every traced pass runs on one worker.
"""

from __future__ import annotations

import importlib
import os
import time

_clock = time.perf_counter


class MissingHook(RuntimeError):
    """A layer boundary the tracer wraps no longer exists."""


def _module(name: str):
    # The package attribute `zetastrips.zeta` is the zeta() function, which
    # shadows the submodule, so modules are always reached by import path.
    return importlib.import_module(f"zetastrips.{name}")


class Tracer:
    def __init__(self) -> None:
        self.evals = 0  # evaluator calls, zeta + zeta' and Z(t) together
        self.eval_s = 0.0
        self.traces = {"boundary": [], "primary": []}  # (seconds, evals, eval_s)
        self.scans = []  # (seconds, evals, zeros)
        self.bisect_evals = 0
        self.stages: dict[str, float] = {}
        self.store_s = 0.0
        self.load_s = 0.0
        self.cache_bytes = 0  # bytes stored plus bytes loaded
        self.analyze_s: list[float] = []
        self.render_s: list[float] = []
        self.svg_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, owner, name: str, make) -> None:
        original = vars(owner).get(name)
        if original is None:
            label = getattr(owner, "__name__", repr(owner))
            raise MissingHook(f"{label}.{name} is gone; update perfbench/layers.py")
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def install(self) -> "Tracer":
        zeta = _module("zeta")
        contour = _module("contour")
        strips = _module("strips")
        pipeline = _module("pipeline")
        cache = _module("cache")
        svgfig = _module("svgfig")
        for owner, name, reference in (
            (contour, "zeta_with_derivative", zeta.zeta_with_derivative),
            (strips, "hardy_z", zeta.hardy_z),
        ):
            if getattr(owner, name, None) is not reference:
                raise MissingHook(f"{owner.__name__}.{name} no longer calls the evaluator")
            self._wrap(owner, name, self._evaluator)
        self._wrap(contour, "_trace_from_launch", self._trace)
        self._wrap(strips, "_bisect_zero", self._bisect)
        for owner in (strips, pipeline):
            self._wrap(owner, "find_zeros", self._scan)
        self._wrap(pipeline, "_run_jobs", self._stage)
        self._wrap(pipeline, "analyze", self._analyze)
        self._wrap(cache.Cache, "store", self._store)
        self._wrap(cache.Cache, "load", self._load)
        self._wrap(svgfig.Chart, "render", self._render)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- wrappers ---------------------------------------------------------

    def _evaluator(self, fn):
        def wrapped(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.eval_s += _clock() - t0
                self.evals += 1

        return wrapped

    def _trace(self, fn):
        def wrapped(k, *args, **kwargs):
            n0, e0, t0 = self.evals, self.eval_s, _clock()
            path = fn(k, *args, **kwargs)
            kind = "primary" if k % 2 else "boundary"
            self.traces[kind].append((_clock() - t0, self.evals - n0, self.eval_s - e0))
            return path

        return wrapped

    def _scan(self, fn):
        def wrapped(*args, **kwargs):
            n0, t0 = self.evals, _clock()
            records = fn(*args, **kwargs)
            self.scans.append((_clock() - t0, self.evals - n0, len(records)))
            return records

        return wrapped

    def _bisect(self, fn):
        def wrapped(*args, **kwargs):
            n0 = self.evals
            try:
                return fn(*args, **kwargs)
            finally:
                self.bisect_evals += self.evals - n0

        return wrapped

    def _stage(self, fn):
        def wrapped(jobs, worker, threads, label, *args, **kwargs):
            t0 = _clock()
            try:
                return fn(jobs, worker, threads, label, *args, **kwargs)
            finally:
                self.stages[label] = self.stages.get(label, 0.0) + _clock() - t0

        return wrapped

    def _analyze(self, fn):
        def wrapped(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.analyze_s.append(_clock() - t0)

        return wrapped

    def _store(self, fn):
        def wrapped(cache, kind, csv_text):
            t0 = _clock()
            try:
                return fn(cache, kind, csv_text)
            finally:
                self.store_s += _clock() - t0
                self.cache_bytes += len(csv_text.encode("utf-8"))

        return wrapped

    def _load(self, fn):
        def wrapped(cache, kind):
            t0 = _clock()
            text = fn(cache, kind)
            self.load_s += _clock() - t0
            self.cache_bytes += len(text.encode("utf-8"))
            return text

        return wrapped

    def _render(self, fn):
        def wrapped(chart, path, *args, **kwargs):
            t0 = _clock()
            try:
                return fn(chart, path, *args, **kwargs)
            finally:
                self.render_s.append(_clock() - t0)
                self.svg_bytes += os.path.getsize(path)

        return wrapped

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        """Raw totals; run.py turns them into metrics."""
        out = {"evals": self.evals, "eval_s": self.eval_s}
        for kind, rows in self.traces.items():
            out[f"{kind}_count"] = len(rows)
            out[f"{kind}_s"] = sum(r[0] for r in rows)
            out[f"{kind}_evals"] = sum(r[1] for r in rows)
            out[f"{kind}_eval_s"] = sum(r[2] for r in rows)
        out["scan_count"] = len(self.scans)
        out["scan_s"] = sum(r[0] for r in self.scans)
        out["scan_evals"] = sum(r[1] for r in self.scans)
        out["scan_zeros"] = sum(r[2] for r in self.scans)
        out["bisect_evals"] = self.bisect_evals
        out["stages"] = dict(self.stages)
        out["store_s"] = self.store_s
        out["load_s"] = self.load_s
        out["cache_bytes"] = self.cache_bytes
        out["analyze_s"] = list(self.analyze_s)
        out["render_s"] = list(self.render_s)
        out["svg_bytes"] = self.svg_bytes
        return out
