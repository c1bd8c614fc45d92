"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured values at its stated tolerance.

The full census (t_max = 1e4, 1102 strips) is computed once per session;
set ZETASTRIPS_ACCEPT_DIR to a persistent directory to reuse its cache
across sessions.  Criteria 1 and 9 are desk-scale and independent of the
full run.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import LN2, bisect_root, central_diff
from zetastrips.analysis import SLOPE_MODEL, arch_centers
from zetastrips.cli import main as cli_main
from zetastrips.contour import special_gram_point
from zetastrips.gram import gap_model
from zetastrips.pipeline import RunConfig, analyze, compute
from zetastrips.zeta import ComplexPoint, hardy_z, zeta

N_WORKERS = min(8, os.cpu_count() or 1)

# the census artifacts, byte for byte, for any worker count
CENSUS_SHA256 = {
    "strips.csv": "a62b8d8cc7ee3f0f8cd47bda323642a98ed4dee5ad21dfff076c4c707ae3b9e6",
    "zeros.csv": "ce5bbd56f3cc2900b7d5499cdde4237a0804771e7aabe0d87bde957ae46b1cff",
    "gram.csv": "92d61419fca2c559243fa7cc29eb08f29ca7ab50bd12cb613391b2b059285b2e",
    "fits.json": "35d890cb33f3fc0f062fa53f6afe81fab5c723205b7bb55a17cdde22cb81960a",
}

# figures 1..16 rendered from that census, byte for byte
FIGURE_SHA256 = {
    1: "0690eb88bfa1bb1149d710dd2258e5d7dc9ba2770275bcd13fb3b2a32f59c5ea",
    2: "f3b30c7735ff53a75421a1c9e7331c794de2b89b4afe7b6cdf0b851bfa2d224c",
    3: "184dc339835aa7eeac0b0ae3619b95b5240d3d537b0f44ae08aa08978fd44129",
    4: "c42e21ac162c6fbbaa107185803834ca40077865a7a2a325ab5052d47f0db875",
    5: "1096ade422664a07ec3a9a83c5ebf4c9694c7478070b8ff57c14810a1a717aa8",
    6: "398fc6164759721b45da7b165dd79b407d4deb2993cc041bcb3ff09d0a8a2343",
    7: "062e2ee6cb4bafd89a7916c48d15a2be36e60fee1151138ebd94efc1e031c154",
    8: "ef88dc2d18594201831163d43e2a5e2224937220bfd6cf0666fe0ab7d048edc1",
    9: "0b58343a2782cb5372955bef8d462f6c4792dc619371ce4aabc86a4d77cfa0ca",
    10: "3ebad4264f5bfa9badf76eb2ad94bbedec9b55c02c7829e5c7fc82f22a344c00",
    11: "c417c979c40d01ba37d87a1452c33bb084a97790940124a9e32aaeeda196982e",
    12: "758b33deb3b599f80ccb73ee1de79a1b4513461fe9acf0b4e96c39fa08473e78",
    13: "eda8945001d8992975577b22fcda40ed04ffa8ef57f0d89d875f22138c9f5eac",
    14: "94f240b4ad961ede867a4654ada280208daabf181f4ea33adbc23b86df50d359",
    15: "5c98d163afc09f49dffc66121a2396528cbd2287effbd71c2ab4308308c22d36",
    16: "63339990fb4434ef62a9a4907d3449125d16933dc414b2c824b84253e6b6498e",
}


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    env_dir = os.environ.get("ZETASTRIPS_ACCEPT_DIR")
    out = Path(env_dir) if env_dir else tmp_path_factory.mktemp("accept") / "out"
    config = RunConfig(t_max=1e4, threads=N_WORKERS, out_dir=out, progress=True)
    t0 = time.time()
    result = compute(config)
    elapsed = time.time() - t0
    report = analyze(config)
    return {
        "config": config,
        "strips": result.strips,
        "elapsed": elapsed,
        "from_cache": result.from_cache,
        "analysis": report,
    }


def test_criterion_1_first_strip_bottom():
    value = special_gram_point(1)
    err = abs(value - 9.6669080561)
    assert err < 1e-6
    print(f"\nACCEPTANCE 1 (first strip bottom): {value:.10f}, |err| = {err:.2e} -> PASS")


def test_criterion_2_strip_census(full_run):
    strips = full_run["strips"]
    assert len(strips) == 1102
    assert strips[-1].top <= 1e4
    if not full_run["from_cache"]:
        # 30 min single-threaded budget; the pool only shrinks wall time
        assert full_run["elapsed"] < 1800.0
    src = "cache" if full_run["from_cache"] else f"{full_run['elapsed']:.0f} s"
    print(f"\nACCEPTANCE 2 (strip census): 1102 strips, top {strips[-1].top:.3f} "
          f"({src}, {N_WORKERS} workers) -> PASS")


def test_criterion_3_linear_fit_reproduction(full_run):
    fits = full_run["analysis"]
    slope = fits.bottoms.slope
    intercept = fits.bottoms.intercept
    tops_icpt = fits.tops.intercept
    assert 9.0644 <= slope <= 9.0650
    assert -0.10 <= intercept <= 0.12
    assert abs(fits.tops.slope - slope) < 3e-4
    assert abs(tops_icpt - 9.07) <= 0.15
    print(f"\nACCEPTANCE 3 (fit): slope = {slope:.5f} in [9.0644, 9.0650], "
          f"intercept = {intercept:.4f} in [-0.10, 0.12], "
          f"tops intercept = {tops_icpt:.4f} = 9.07 +- 0.15 -> PASS")


def test_criterion_4_deviation_bound(full_run):
    devs = [s.bottom - s.m * SLOPE_MODEL for s in full_run["strips"]]
    lo, hi = min(devs), max(devs)
    assert -2.0 < lo and hi < 2.0
    print(f"\nACCEPTANCE 4 (deviation bound): range ({lo:.4f}, {hi:.4f}) "
          f"inside (-2, 2) for all 1102 strips -> PASS")


def test_criterion_5_zero_gram_identity(full_run):
    violations = [
        s.m for s in full_run["strips"] if len(s.zeros) != s.gram_count
    ]
    assert violations == []
    total = sum(len(s.zeros) for s in full_run["strips"])
    print(f"\nACCEPTANCE 5 (zero/Gram identity): 0 violations in 1102 strips "
          f"({total} zeros) -> PASS")


def test_criterion_6_primary_statistics(full_run):
    stats = full_run["analysis"].primary
    assert abs(stats.mean - 0.5) <= 0.02
    assert abs(stats.variance - 0.014) <= 0.004
    for qv in stats.quartile_variances:
        assert 0.008 <= qv <= 0.020
    quartiles = ", ".join(f"{v:.4f}" for v in stats.quartile_variances)
    print(f"\nACCEPTANCE 6 (primary statistics): mean = {stats.mean:.4f} "
          f"(0.5 +- 0.02), variance = {stats.variance:.4f} (0.014 +- 0.004), "
          f"quartiles [{quartiles}] in [0.008, 0.020] -> PASS")


def test_criterion_7_arch_formula(full_run):
    for arch in full_run["analysis"].arches:
        assert abs(arch.t_center / arch.m_center - 2.0 * math.pi / LN2) < 1e-9
    listed = {4: 11.09, 5: 22.18, 6: 44.36, 7: 88.72, 8: 177.4, 9: 354.9, 10: 709.8}
    q1 = {a.p: a.m_center for a in arch_centers(10, 1)}
    for p, approx in listed.items():
        assert abs(q1[p] - approx) < 0.05, (p, q1[p])
    centers = ", ".join(f"{q1[p]:.1f}" for p in sorted(listed))
    print(f"\nACCEPTANCE 7 (arch formula): t/m ratio exact to 1e-9 for "
          f"{len(full_run['analysis'].arches)} predictions; alpha(p,1) centers "
          f"p=4..10 at m = [{centers}] -> PASS")


def test_criterion_8_width_model(full_run):
    checked = 0
    within = 0
    for s in full_run["strips"]:
        if s.m <= 10:
            continue
        checked += 1
        model = len(s.zeros) * gap_model(0.5 * (s.bottom + s.top))
        if abs(s.width - model) / s.width < 0.05:
            within += 1
    frac = within / checked
    assert frac >= 0.99
    print(f"\nACCEPTANCE 8 (width model): {within}/{checked} strips "
          f"({100 * frac:.2f}%) within 5% of count * gap_model(midpoint) -> PASS")


def test_criterion_9_desk_scale_suite(tmp_path):
    val = zeta(ComplexPoint(2.0, 0.0)).value
    assert abs(val - math.pi**2 / 6.0) < 1e-10

    rng = np.random.default_rng(424242)
    worst_conj = 0.0
    count = 0
    while count < 100:
        sigma = rng.uniform(-2.0, 8.0)
        t = rng.uniform(0.5, 1.1e4)
        if abs(complex(sigma, t) - 1.0) < 0.5:
            continue
        count += 1
        a = zeta(ComplexPoint(sigma, t)).value
        b = zeta(ComplexPoint(sigma, -t)).value
        worst_conj = max(worst_conj, abs(b - a.conjugate()))
    assert worst_conj < 1e-10

    worst_fd = 0.0
    for _ in range(20):
        s = complex(rng.uniform(-1.0, 7.0), rng.uniform(8.0, 9.0e3))
        got = zeta(ComplexPoint(s.real, s.imag), derivative=True).derivative
        fd = central_diff(lambda w: zeta(ComplexPoint(w.real, w.imag)).value, s)
        worst_fd = max(worst_fd, abs(fd - got) / abs(got))
    assert worst_fd < 1e-6

    zero = bisect_root(hardy_z, 14.0, 14.3, tol=1e-10)
    assert abs(zero - 14.134725) < 1e-5

    t0 = time.time()
    rc = cli_main(["--out", str(tmp_path / "verify"), "--quiet", "verify"])
    verify_secs = time.time() - t0
    assert rc == 0
    assert verify_secs < 30.0
    print(f"\nACCEPTANCE 9 (desk-scale suite): zeta(2) exact to 1e-10; "
          f"conjugate symmetry {worst_conj:.1e}; derivative FD {worst_fd:.1e}; "
          f"first zero {zero:.6f}; verify in {verify_secs:.1f} s -> PASS")


def test_criterion_10_determinism(tmp_path):
    artifacts = ("gram.csv", "strips.csv", "zeros.csv", "fits.json",
                 "deviations.csv", "arches.csv")
    payloads = {}
    for threads in (1, 8):
        out = tmp_path / f"threads{threads}"
        config = RunConfig(t_max=500.0, threads=threads, out_dir=out, progress=False)
        compute(config)
        analyze(config)
        payloads[threads] = {name: (out / name).read_bytes() for name in artifacts}
    diffs = [n for n in artifacts if payloads[1][n] != payloads[8][n]]
    assert diffs == []
    print(f"\nACCEPTANCE 10 (determinism): {len(artifacts)} artifacts "
          f"byte-identical for threads 1 vs 8 at t_max = 500 -> PASS")


def test_supplementary_census_artifacts_pinned(full_run):
    out = full_run["config"].out_dir
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in CENSUS_SHA256}
    assert digests == CENSUS_SHA256
    print(f"\nSUPPLEMENTARY: {', '.join(CENSUS_SHA256)} match their pinned "
          "sha256 -> PASS")


def test_supplementary_total_zero_count(full_run):
    from zetastrips.strips import find_zeros
    from zetastrips.zeta import rs_theta

    strips = full_run["strips"]
    tail = find_zeros(strips[-1].top, 1e4)
    total = sum(len(s.zeros) for s in strips) + len(tail)
    # Riemann-von Mangoldt at T = 1e4: theta/pi + 1 = 10142.97, and the
    # small negative S(T) there puts the true count at its floor, 10142
    assert total == math.floor(rs_theta(1e4) / math.pi + 1.0) == 10142
    print(f"\nSUPPLEMENTARY: {total} zeros below 1e4 match the counting formula -> PASS")


def test_supplementary_deviation_variance_stable(full_run):
    devs = np.array([s.bottom - s.m * SLOPE_MODEL for s in full_run["strips"]])
    window_vars = [devs[i : i + 64].var() for i in range(0, devs.size - 63, 64)]
    ratio = max(window_vars) / min(window_vars)
    assert ratio < 3.0
    print(f"\nSUPPLEMENTARY: deviation variance over 64-strip windows spans "
          f"x{ratio:.2f} (< 3) -> PASS")


def test_supplementary_density_fit_properties(full_run):
    fit = full_run["analysis"].density_log
    worst = 0.0
    for m in range(50, 1103):
        model = 1.0 / gap_model(SLOPE_MODEL * m)
        fitted = fit.intercept + fit.slope * math.log(m)
        worst = max(worst, abs(fitted - model) / model)
    assert worst < 0.05
    resid = dict(full_run["analysis"].density_dev)
    early = np.mean([abs(resid[m]) for m in range(1, 71)])
    late = np.mean([abs(resid[m]) for m in range(560, 1103)])
    assert late < early
    print(f"\nSUPPLEMENTARY: density fit within {100 * worst:.2f}% of the spacing "
          f"model on m in [50, 1102]; |residual| falls {early:.4f} -> {late:.4f} -> PASS")


def test_supplementary_no_fit_curvature(full_run):
    from zetastrips.analysis import fit_bottoms

    strips = full_run["strips"]
    full_slope = full_run["analysis"].bottoms.slope
    first = fit_bottoms(strips[: len(strips) // 2]).slope
    second = fit_bottoms(strips[len(strips) // 2 :]).slope
    worst = max(abs(first - full_slope), abs(second - full_slope))
    assert worst < 1e-3
    print(f"\nSUPPLEMENTARY: half-range slopes within {worst:.2e} of the full "
          f"fit (no curvature) -> PASS")


def test_supplementary_zero_count_grows_logarithmically(full_run):
    counts = np.array([len(s.zeros) for s in full_run["strips"]], dtype=float)
    lnm = np.log(np.arange(1, counts.size + 1, dtype=float))
    slope = float(np.polyfit(lnm, counts, 1)[0])
    assert slope > 0.0
    print(f"\nSUPPLEMENTARY: zeros-per-strip vs ln m slope = {slope:.3f} > 0 -> PASS")


def test_supplementary_all_sixteen_figures(full_run):
    out = full_run["config"].out_dir
    for figure in range(1, 17):
        rc = cli_main(
            ["--out", str(out), "--quiet", "plot", "--figure", str(figure)]
        )
        assert rc == 0, f"figure {figure}"
        svg = out / f"fig{figure}.svg"
        assert svg.exists() and svg.stat().st_size > 500
        digest = hashlib.sha256(svg.read_bytes()).hexdigest()
        assert digest == FIGURE_SHA256[figure], f"figure {figure}"
    print("\nSUPPLEMENTARY: figures 1..16 rendered as SVG, each matching its "
          "pinned sha256 -> PASS")
