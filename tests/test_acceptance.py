"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-9 exercise the library surface at the stated tolerances;
criterion 10 reruns the CLI in fresh subprocesses and compares bytes.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from normproj import boxdim, cantor, checks, fractals, norms, projections as pj, sweep
from normproj.norms import HyperplaneNormal


def _verdict(number, name, ok, detail=""):
    print(f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_gauss_lemma_suite():
    start = time.monotonic()
    worst_defect = 0.0
    min_inner = np.inf
    all_monotone = True
    for p in (1.5, 2.0, 3.0, 8.0):
        rep = norms.check_gauss_properties(norms.lp(p), 2048)
        worst_defect = max(worst_defect, rep.antipodality_defect)
        min_inner = min(min_inner, rep.min_inner)
        all_monotone = all_monotone and rep.monotone
    elapsed = time.monotonic() - start
    ok = worst_defect <= 1e-12 and all_monotone and min_inner > 0.0 and elapsed < 5.0
    _verdict(1, "gauss map suite over L^p",
             ok, f"(defect {worst_defect:.1e}, min inner {min_inner:.3f}, {elapsed:.2f}s)")


def test_criterion_2_projection_reduction(ce_norm):
    rng = np.random.default_rng(2024)
    models = [norms.euclidean(), norms.lp(1.5), norms.lp(3.0),
              norms.inner_product(np.diag([1.0, 4.0])), ce_norm]
    worst = 0.0
    for model in models:
        for _ in range(100):
            w = HyperplaneNormal.from_angle(rng.uniform(0.0, np.pi))
            x = rng.standard_normal(2) * 2.0
            a = pj.project_hyperplane(model, w, x)
            b = pj.project_hyperplane_direct(model, w, x)
            worst = max(worst, float(np.max(np.abs(a - b))))
    collinear = 0.0
    for model in models:
        w = HyperplaneNormal.from_angle(0.9)
        dirs = []
        for _ in range(50):
            x = rng.standard_normal(2) * 2.0
            d = x - pj.project_hyperplane_direct(model, w, x)
            if np.linalg.norm(d) > 1e-4:
                dirs.append(d / np.linalg.norm(d))
        for d in dirs[1:]:
            collinear = max(collinear, abs(dirs[0][0] * d[1] - dirs[0][1] * d[0]))
    ok = worst <= 1e-7 and collinear <= 1e-8
    _verdict(2, "lemma-vs-direct projections",
             ok, f"(agreement {worst:.2e}, collinearity {collinear:.2e})")


def test_criterion_3_intertwiner():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        f = rng.standard_normal((2, 4))
        g = rng.standard_normal((3, 2)) @ f
        h = pj.construct_intertwiner(f, g)
        xs = rng.standard_normal((100, 4))
        worst = max(worst, float(np.max(np.abs((xs @ f.T) @ h.T - xs @ g.T))))

    cloud = fractals.cantor_product(1.0 / 3.0, 8)
    oblique = pj.angle_family(lambda a: np.pi / 4.0)(HyperplaneNormal.from_angle(1.3))
    orthogonal = pj.projector_from_kernel(pj.associated_g(oblique), oblique.kernel_dir)
    scales = [3.0**-k for k in range(2, 8)]
    slopes = []
    for proj in (oblique, orthogonal):
        counts = boxdim.projector_counts(proj, cloud, scales)
        slopes.append(boxdim.fit_loglog(scales, counts).slope)
    gap = abs(slopes[0] - slopes[1])
    ok = worst <= 1e-12 and gap <= 0.05
    _verdict(3, "intertwiner transport and box dims",
             ok, f"(h(f(x))=g(x) defect {worst:.2e}, dim gap {gap:.3f})")


def test_criterion_4_conjugation_and_lp_lines():
    rng = np.random.default_rng(4)
    worst = 0.0
    trials = 0
    while trials < 50:
        for n in (2, 3):
            for m in (1, n - 1):
                a = rng.standard_normal((n, n))
                q = a @ a.T + 0.5 * np.eye(n)
                basis = rng.standard_normal((n, m))
                x = rng.standard_normal(n)
                got = pj.conjugate_projection(q, basis, x)
                coef = np.linalg.solve(basis.T @ q @ basis, basis.T @ q @ x)
                worst = max(worst, float(np.max(np.abs(got - basis @ coef))))
                trials += 1
    v = np.ones(3) / math.sqrt(3.0)
    d2 = pj.linearity_defect(lambda x: pj.project_line_lp(2.0, v, x), seed=0x5EED)
    d4 = pj.linearity_defect(lambda x: pj.project_line_lp(4.0, v, x), seed=0x5EED)
    ok = worst <= 1e-9 and d2 <= 1e-9 and d4 > 1e-3
    _verdict(4, "inner-product conjugation and L^p lines",
             ok, f"(conj {worst:.2e}, p2 defect {d2:.2e}, p4 defect {d4:.2e})")


def test_criterion_5_counterexample_constants(triadic_set, curve12):
    f1 = cantor.F_eval(triadic_set, 1.0)
    theta1 = curve12.theta1
    ok_f1 = abs(f1.value - 0.125) <= 1e-6 and f1.value <= 0.25
    ok_theta = abs(theta1 - math.atan(2.0 / 7.0)) <= 1e-6 and 0.0 < theta1 < math.pi / 2.0 - 1.0
    lo, hi = cantor.f_image_bracket(triadic_set, 12)
    ok_bracket = lo == 0.5 and hi == pytest.approx(0.5 * (1.0 + (2.0 / 3.0) ** 12), abs=1e-12)
    ok_bracket = ok_bracket and (hi - lo) / 0.5 < 0.01
    sweep_vals = curve12.t + 0.5 * np.pi + curve12.theta
    ok_p1 = bool(np.all(np.diff(sweep_vals) > 0.0))
    p2_lo, p2_hi = cantor.image_measure_bounds(curve12, 10)
    ok_p2 = p2_lo > 0.0 and abs(p2_lo - checks.P2_LOWER_LEVEL10) <= checks.P2_REGRESSION_TOL
    ok = ok_f1 and ok_theta and ok_bracket and ok_p1 and ok_p2
    _verdict(5, "staircase construction constants", ok,
             f"(F(1)={f1.value:.9f}, theta1={theta1:.9f}, P2 lower {p2_lo:.9f})")


def test_criterion_6_built_norm_validity(ce_norm):
    table = ce_norm.support
    rep = norms.check_gauss_properties(ce_norm, 1024)
    curve = ce_norm.curve
    phi1 = 1.0 + curve.theta1
    dh_a = -(1.0 - curve.F1) * math.sin(curve.theta1)
    h_a = (1.0 - curve.F1) * math.cos(curve.theta1)
    _, dpoly = cantor._quintic_hermite(phi1, np.pi, h_a, dh_a, 1.0, 0.0)
    ok = (
        table.antipodal_defect() <= 1e-10
        and table.convexity_slack() > 0.0
        and abs(dpoly(phi1) - dh_a) <= 1e-12
        and abs(dpoly(np.pi)) <= 1e-12
        and rep.monotone
        and rep.min_inner > 0.0
        and rep.antipodality_defect <= 1e-12
    )
    _verdict(6, "assembled support table validity", ok,
             f"(slack {table.convexity_slack():.3f}, min inner {rep.min_inner:.3f})")


def test_criterion_7_dimension_references():
    start = time.monotonic()
    refs = [
        (fractals.triadic_cloud(10), math.log(2) / math.log(3), 0.03),
        (fractals.cantor_product(1.0 / 3.0, 10), 2 * math.log(2) / math.log(3), 0.05),
        (fractals.four_corner(8), 1.0, 0.05),
        (fractals.square_cloud(8), 2.0, 0.02),
    ]
    worst_r2 = 1.0
    ok = True
    details = []
    for cloud, expect, tol in refs:
        est = boxdim.estimate_dim(cloud)
        worst_r2 = min(worst_r2, est.r2)
        ok = ok and abs(est.slope - expect) <= tol and est.r2 >= 0.999
        details.append(f"{cloud.label}={est.slope:.4f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _verdict(7, "estimator reference dimensions", ok,
             f"({', '.join(details)}, r2>={worst_r2:.6f}, {elapsed:.1f}s)")


def test_criterion_8_marstrand_probe():
    cloud = fractals.cantor_product(1.0 / 3.0, 8)
    grid = sweep.DirectionGrid(720)
    scales = [3.0**-k for k in range(2, 8)]
    full = boxdim.estimate_dim(cloud)
    threshold = 0.9 * min(1.0, full.slope)
    prof = sweep.dim_profile(norms.euclidean(), cloud, grid, scales, threshold=threshold)
    i_half = 360  # pi/2
    ok = (
        prof.flagged_measure <= 0.10
        and bool(prof.flagged[0])
        and bool(prof.flagged[i_half])
    )
    _verdict(8, "marstrand direction sweep", ok,
             f"(flagged measure {prof.flagged_measure:.4f}, axes flagged "
             f"{bool(prof.flagged[0])}/{bool(prof.flagged[i_half])})")


def test_criterion_9_besicovitch_federer_probe(ce_norm):
    grid = sweep.DirectionGrid(72)
    vals = [boxdim.favard_proxy(fractals.four_corner(g), grid, 4.0 ** (1 - g))
            for g in range(3, 8)]
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    locked = [1.10763888889, 0.983940972222, 0.889756944444, 0.814344618056, 0.754611545139]
    regression = max(abs(a - b) for a, b in zip(vals, locked)) <= 1e-6

    fc5 = fractals.four_corner(5)
    eu = boxdim.favard_proxy(fc5, grid, 4.0**-4)
    ce = boxdim.favard_proxy(fc5, grid, 4.0**-4, norm=ce_norm)
    rel = abs(eu - ce) / eu
    ok = decreasing and regression and rel <= 0.20
    _verdict(9, "favard proxy decay and norm comparison", ok,
             f"(sequence {['%.4f' % v for v in vals]}, norm rel diff {rel:.3f})")


def test_criterion_10_determinism(tmp_path):
    def run_twice(args, outputs):
        blobs = []
        for tag in ("a", "b"):
            run_dir = tmp_path / tag
            run_dir.mkdir(exist_ok=True)
            argv = [sys.executable, "-m", "normproj"] + [
                a.replace("@", str(run_dir) + "/") for a in args
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            blobs.append(b"".join((run_dir / out).read_bytes() for out in outputs))
        return blobs[0] == blobs[1]

    same = True
    same &= run_twice(["verify", "--out", "@verify.json"], ["verify.json"])
    same &= run_twice(
        ["counterexample", "build", "--m", "2", "--r", "1/3", "--level", "8",
         "--out", "@ce.csv"],
        ["ce.csv", "ce.json"],
    )
    same &= run_twice(["set", "--set", "cantor-product", "--gen", "5", "--out", "@cloud.csv"],
                      ["cloud.csv"])
    same &= run_twice(["dim", "--set", "triadic", "--gen", "9", "--out", "@dim"],
                      ["dim.csv", "dim.json"])
    same &= run_twice(
        ["sweep", "--norm", "euclidean", "--set", "cantor-product", "--gen", "6",
         "--directions", "36", "--scales", "2:5", "--out", "@sw"],
        ["sw.csv", "sw.json"],
    )
    _verdict(10, "byte-identical artifacts across reruns", same)
