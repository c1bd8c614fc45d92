"""Capture the benchmark's correctness references from the current code.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run from the repository root.  It computes the t_max = 1e3 census, every
strip m in [1000, 1101] through the public layer functions, and the
warm-cache fits, and writes perfbench/refs/*.json.  Before writing, it checks the results against
checks outside the package's own code path: mpmath.nzeros at the census
tops and the top-band edges, and mpmath.zetazero at sampled j.  The
references are captured once and committed; rerunning this script after a
numerics change would defeat the benchmark's correctness gate.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parent))
from child import TOP_BAND, band_strip, sha256  # noqa: E402

REFS = Path(__file__).resolve().parent / "refs"


def census_ref(t_max: float, work: Path) -> dict:
    from zetastrips import pipeline

    config = pipeline.RunConfig(t_max=t_max, out_dir=work / "out", cache_dir=work / "cache")
    result = pipeline.compute(config)
    assert not result.from_cache
    zeros_text = (work / "out" / "zeros.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in zeros_text.strip().splitlines()[1:]]
    top = result.boundaries[-1]
    n_below_top = int(mpmath.nzeros(top))
    if n_below_top != len(rows):
        raise SystemExit(f"t_max {t_max}: mpmath.nzeros(top) = {n_below_top}, census {len(rows)}")
    mpmath.mp.dps = 20
    for j in (1, len(rows) // 2, len(rows)):
        ref = float(mpmath.zetazero(j).imag)
        if abs(ref - float(rows[j - 1][1])) > 1e-8:
            raise SystemExit(f"zero {j}: census {rows[j - 1][1]} vs mpmath {ref}")
    return {
        "t_max": t_max,
        "n_strips": len(result.strips),
        "n_zeros": len(rows),
        "strips_sha256": sha256(work / "out" / "strips.csv"),
        "gram_sha256": sha256(work / "out" / "gram.csv"),
        "zeros": [row[1] for row in rows],
        "mpmath_nzeros_at_top": n_below_top,
    }


def top_band_ref() -> dict:
    from zetastrips import gram

    table = gram.default_table()
    table.extend_to_height(1.1e4)
    strips = {}
    for m in range(TOP_BAND[0], TOP_BAND[1] + 1):
        t0 = time.perf_counter()
        row = band_strip(m, table)
        print(f"strip {m}: {time.perf_counter() - t0:.3f} s", file=sys.stderr)
        strips[str(m)] = row
    first, last = strips[str(TOP_BAND[0])], strips[str(TOP_BAND[1])]
    edges = {}
    for label, height in (("bottom", first["bottom"]), ("top", last["top"])):
        n = table.index_near(float(height))
        count = int(mpmath.nzeros(float(height)))
        # zeros below a special Gram point g_n: one per Gram point g_-1..g_(n-1)
        if count != n + 1:
            raise SystemExit(f"band {label} {height}: mpmath.nzeros {count} vs Gram {n + 1}")
        edges[label] = {"height": height, "gram_index": n, "mpmath_nzeros": count}
    total = sum(row["n_zeros"] for row in strips.values())
    if total != edges["top"]["mpmath_nzeros"] - edges["bottom"]["mpmath_nzeros"]:
        raise SystemExit("top band zero total disagrees with mpmath.nzeros")
    return {"band": list(TOP_BAND), "strips": strips, "mpmath_edges": edges}


def warm_ref(work: Path) -> dict:
    from zetastrips import pipeline

    config = pipeline.RunConfig(t_max=1e3, out_dir=work / "out", cache_dir=work / "cache")
    pipeline.analyze(config)
    return {"t_max": 1e3, "fits_sha256": sha256(work / "out" / "fits.json")}


def main() -> None:
    REFS.mkdir(exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        work = Path(tmp)
        refs["census-1e3"] = census_ref(1e3, work / "c1")
        refs["warm-reports"] = warm_ref(work / "c1")
    refs["top-band"] = top_band_ref()
    for name, payload in refs.items():
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        (REFS / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote refs/{name}.json")


if __name__ == "__main__":
    main()
