from fractions import Fraction

import numpy as np

from normproj import cantor, checks
from normproj.norms import NormModel, SupportTable
from staircase_oracle import level_intervals


def test_run_all_passes():
    reports = checks.run_all(seed=0)
    assert len(reports) == len(checks.CHECK_NAMES)
    assert [r.name for r in reports] == list(checks.CHECK_NAMES)
    failed = [r.name for r in reports if not r.passed]
    assert not failed, f"failing checks: {failed}"


def test_report_invariant_and_tolerances():
    for r in checks.run_all(seed=3):
        assert r.passed == (r.worst_defect <= r.tolerance)
        assert np.isfinite(r.tolerance)


def test_pass_vector_stable_across_seeds():
    vectors = []
    for seed in range(10):
        vectors.append(tuple(r.passed for r in checks.run_all(seed=seed)))
    assert len(set(vectors)) == 1


def test_sabotaged_glue_surfaces_as_failing_report(ce_norm, monkeypatch):
    table = ce_norm.support
    h = table.h.copy()
    # negate the convexity slack on a glue stretch: push a dent into h
    phi1 = 1.0 + ce_norm.curve.theta1
    glue = np.flatnonzero((phi1 < table.phi) & (table.phi < np.pi))
    mid = glue[len(glue) // 2]
    h[mid] -= 0.05
    h[(mid + len(h) // 2) % len(h)] -= 0.05  # keep antipodal symmetry
    broken = SupportTable(phi=table.phi.copy(), h=h, dh=table.dh.copy())
    assert broken.convexity_slack() <= 0.0
    monkeypatch.setitem(checks._DEFAULT_BUILD, "ce", NormModel(kind="support_table", support=broken))
    report = checks._check_table_validity(0)
    assert report.name == "support_table_validity"
    assert not report.passed and report.worst_defect == 2.0


def test_reports_carry_seeds():
    reports = checks.run_all(seed=11)
    assert [r.seed for r in reports] == [11 + i for i in range(len(reports))]


def test_monotone_product_reads_exact_f_from_the_curve():
    # the check's inputs are the per-point exact f values at the level-10
    # interval endpoints, converted once; its report matches the loop over them
    curve = checks._shared_norm().curve
    K = curve.K
    starts, length = level_intervals(K, curve.level)
    ends = ~curve.is_gap_mid
    assert curve.t[ends].tolist() == [float(t) for a in starts for t in (a, a + length)]
    assert curve.f[ends].tolist() == [cantor.f_eval(K, t) for a in starts for t in (a, a + length)]
    g = lambda t: 1.0 + t * t
    worst, samples = 0.0, 0
    for a in starts:
        if a < Fraction(1, 4):
            continue
        fa, fb = cantor.f_eval(K, a), cantor.f_eval(K, a + length)
        worst = max(worst, g(0.25) * (fb - fa) - (fb * g(float(a + length)) - fa * g(float(a))))
        samples += 1
    report = checks._check_monotone_product(0)
    assert (report.worst_defect, report.samples) == (worst, samples)
    assert report.passed
