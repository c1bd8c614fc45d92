"""Smoke test of the benchmark's layer tracer (perfbench/layers.py): every
hook it wraps still exists, a traced boundary and scan are recorded, and
removing the tracer restores the package."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layers import Tracer  # noqa: E402

from zetastrips.gram import default_table  # noqa: E402



def _module(name: str):
    # by import path, as perfbench/layers.py reaches them
    return importlib.import_module(f"zetastrips.{name}")


def test_tracer_records_layers_and_restores():
    contour, strips, pipeline = _module("contour"), _module("strips"), _module("pipeline")
    hooks = [
        (contour, "zeta_with_derivative"),
        (contour, "_trace_from_launch"),
        (strips, "hardy_z"),
        (strips, "find_zeros"),
        (strips, "_bisect_zero"),
        (pipeline, "find_zeros"),
        (pipeline, "_run_jobs"),
        (pipeline, "analyze"),
        (_module("cache").Cache, "store"),
        (_module("cache").Cache, "load"),
        (_module("svgfig").Chart, "render"),
    ]
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in hooks]
    contour.strip_boundary.cache_clear()  # a memoized boundary is not traced
    tracer = Tracer().install()
    try:
        bottom = contour.special_gram_point(3)
        top = contour.special_gram_point(4)
        zeros = strips.find_zeros(bottom, top, default_table().count_in(bottom, top))
    finally:
        tracer.remove()
    summary = tracer.summary()
    assert summary["boundary_count"] == 2 and summary["boundary_evals"] > 0
    assert summary["scan_count"] == 1 and summary["scan_zeros"] == len(zeros) > 0
    assert summary["bisect_evals"] > 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
