import math
from fractions import Fraction

import numpy as np
import pytest

from normproj import cantor, norms
from normproj.cantor import CantorSet
from normproj.errors import CurveInvariantFailed, NotStrictlyConvex
from staircase_oracle import F_exact, gaps_upto, level_intervals


def ternary_digit_oracle(t, digits=80):
    """Independent staircase evaluator for the triadic set: ternary digits
    map to binary digits, stopping at the first 1 (a gap digit)."""
    value = Fraction(0)
    weight = Fraction(1, 2)
    x = Fraction(t)
    for _ in range(digits):
        x *= 3
        digit = int(x)
        x -= digit
        if digit == 1:
            return value + weight
        if digit >= 2:
            value += weight
        weight /= 2
        if x == 0:
            break
    return value


# -- the set -----------------------------------------------------------------

def test_cantor_set_invariants(triadic_set):
    assert triadic_set.dimension == pytest.approx(math.log(2) / math.log(3), abs=1e-15)
    assert 0.0 < triadic_set.dimension < 1.0
    starts, length = level_intervals(triadic_set, 5)
    assert len(starts) == 2**5
    assert length == Fraction(1, 3) ** 5
    with pytest.raises(ValueError):
        CantorSet(m=2, r=Fraction(1, 2))
    with pytest.raises(ValueError):
        CantorSet(m=1, r=Fraction(1, 3))


def test_gap_structure(triadic_set):
    gaps = gaps_upto(triadic_set, 3)
    assert len(gaps) == 2**3 - 1
    total = sum(hi - lo for lo, hi in gaps)
    assert total == 1 - Fraction(2, 3) ** 3


REFERENCE_SETS = [(2, Fraction(1, 3)), (3, Fraction(1, 5)), (2, Fraction(1, 4))]


@pytest.mark.parametrize("m, r", REFERENCE_SETS)
def test_gaps_upto_count_and_length(m, r):
    K = CantorSet(m=m, r=r)
    starts, length = [Fraction(0)], Fraction(1)   # recursive construction
    for k in range(7):
        assert level_intervals(K, k) == (sorted(starts), length)
        gaps = gaps_upto(K, k)
        assert len(gaps) == m**k - 1
        assert sum(hi - lo for lo, hi in gaps) == 1 - (m * r) ** k
        assert all(lo < hi for lo, hi in gaps)
        starts = [a + j * K.branch_step * length for a in starts for j in range(m)]
        length *= r


# -- staircase ---------------------------------------------------------------

def test_staircase_trivial(triadic_set):
    assert cantor._staircase_exact(triadic_set, 1.0) == (1, 0)
    assert cantor._staircase_exact(triadic_set, 0.0) == (0, 0)
    assert cantor._staircase_exact(triadic_set, Fraction(1, 3)) == (Fraction(1, 2), 0)


def test_staircase_quarter_digit_oracle(triadic_set):
    value, error = cantor._staircase_exact(triadic_set, 0.25)
    oracle = ternary_digit_oracle(Fraction(1, 4))
    assert float(oracle) == pytest.approx(1.0 / 3.0, abs=1e-18)
    assert abs(value - oracle) <= error + 1e-15


def test_staircase_matches_digit_oracle(triadic_set, rng):
    for t in rng.uniform(0.0, 1.0, size=60):
        value, error = cantor._staircase_exact(triadic_set, float(t))
        oracle = ternary_digit_oracle(Fraction(float(t)))
        assert abs(value - oracle) <= error + 1e-12


def test_staircase_exact_at_breakpoints(triadic_set):
    starts, length = level_intervals(triadic_set, 6)
    for b in starts + [a + length for a in starts]:
        assert cantor._staircase_exact(triadic_set, b)[1] == 0


def test_staircase_constant_on_gaps(triadic_set):
    for lo, hi in gaps_upto(triadic_set, 4):
        vals = [cantor._staircase_exact(triadic_set, lo + (hi - lo) * q) for q in
                (Fraction(1, 7), Fraction(1, 2), Fraction(6, 7))]
        assert all(error == 0 for _, error in vals)
        assert vals[0][0] == vals[1][0] == vals[2][0]


def test_staircase_nondecreasing(triadic_set, rng):
    ts = np.sort(rng.uniform(0.0, 1.0, size=50))
    vals = [cantor._staircase_exact(triadic_set, float(t))[0] for t in ts]
    assert np.all(np.diff(vals) >= -1e-15)


def test_staircase_general_set():
    K = CantorSet(m=3, r=Fraction(1, 4))
    assert cantor._staircase_exact(K, Fraction(1, 4))[0] == pytest.approx(1.0 / 3.0)
    assert cantor._staircase_exact(K, Fraction(1, 2))[0] == pytest.approx(0.5)
    assert cantor._staircase_exact(K, 1.0) == (1, 0)


# -- f and F -----------------------------------------------------------------

def test_f_endpoints_and_third(triadic_set):
    assert cantor.f_eval(triadic_set, 0.0) == 0.0
    assert cantor.f_eval(triadic_set, 1.0) == 1.0
    assert cantor.f_eval(triadic_set, Fraction(1, 3)) == pytest.approx(5.0 / 12.0, abs=1e-15)


def test_f_slope_half_on_gaps(triadic_set):
    for lo, hi in gaps_upto(triadic_set, 6):
        df = cantor.f_eval(triadic_set, hi) - cantor.f_eval(triadic_set, lo)
        assert df == pytest.approx(float(hi - lo) / 2.0, abs=1e-15)


def test_F_values(triadic_set):
    assert F_exact(triadic_set, 0.0) == (0, 0)
    assert F_exact(triadic_set, 1.0) == (Fraction(1, 8), 0)
    for m, r in ((2, Fraction(1, 3)), (3, Fraction(1, 4)), (2, Fraction(2, 5)), (4, Fraction(1, 5))):
        K = CantorSet(m=m, r=r)
        assert F_exact(K, 1.0)[0] <= 0.25


def test_F_riemann_bracket_oracle(triadic_set):
    # f is nondecreasing: left/right Riemann sums bracket the integral
    n = 4096
    ts = np.arange(n + 1) / n
    fv = np.array([cantor.f_eval(triadic_set, t) for t in ts])
    lower = np.sum(fv[:-1]) / n / 4.0
    upper = np.sum(fv[1:]) / n / 4.0
    got, _ = F_exact(triadic_set, 1.0)
    assert lower - 1e-12 <= got <= upper + 1e-12


def test_F_strictly_convex_uniform_grid(triadic_set):
    ts = np.arange(257) / 256.0
    fv = np.array([float(F_exact(triadic_set, t)[0]) for t in ts])
    slopes = np.diff(fv) / np.diff(ts)
    assert np.all(np.diff(slopes) > 0.0)


# -- the curve ---------------------------------------------------------------

def _gamma(curve):
    """Points (1 - F(t)) (cos t, sin t) of the rolled-up arc."""
    return (1.0 - curve.F)[:, None] * norms.unit_vector(curve.t)


def _beta(curve):
    """Unit tangents of the arc, at polar angle t + pi/2 + theta(t)."""
    return norms.unit_vector(curve.t + 0.5 * np.pi + curve.theta)


def test_curve_endpoint_values(curve10):
    assert np.allclose(_beta(curve10)[0], [0.0, 1.0], atol=1e-15)
    assert np.allclose(_gamma(curve10)[0], [1.0, 0.0], atol=1e-15)
    assert curve10.theta1 == pytest.approx(math.atan(2.0 / 7.0), abs=1e-15)
    assert 0.0 < curve10.theta1 < math.pi / 2.0 - 1.0
    assert curve10.F1 == pytest.approx(0.125, abs=1e-15)


def test_curve_monotonicity(curve10):
    assert np.all(np.diff(curve10.psi) > 0.0)
    assert np.all(np.diff(curve10.t + np.pi / 2.0 + curve10.theta) > 0.0)
    assert np.all(np.diff(curve10.f) > 0.0)


def test_beta_dominates_w(curve10, rng):
    # chord comparison: |beta(t)-beta(t')| >= |w(t)-w(t')| with w = (cos
    # theta, sin theta), because the tangent angle gains t on top of theta
    idx = rng.integers(0, len(curve10.t), size=(200, 2))
    w = norms.unit_vector(curve10.theta)
    beta = _beta(curve10)
    for i, j in idx:
        db = np.linalg.norm(beta[i] - beta[j])
        dw = np.linalg.norm(w[i] - w[j])
        assert db >= dw - 1e-12


def _assert_grid_matches_descent(curve):
    # the one-pass grid against the per-point exact descents, bit for bit
    K, level = curve.K, curve.level
    starts, length = level_intervals(K, level)
    breaks = set(starts) | {a + length for a in starts}
    ts = sorted(breaks | {(lo + hi) / 2 for lo, hi in gaps_upto(K, level)})
    assert curve.t.tobytes() == np.array([float(t) for t in ts]).tobytes()
    assert curve.f.tobytes() == np.array([float(cantor._f_exact(K, t)[0]) for t in ts]).tobytes()
    assert curve.F.tobytes() == np.array([float(F_exact(K, t)[0]) for t in ts]).tobytes()
    assert curve.is_gap_mid.tolist() == [t not in breaks for t in ts]
    assert curve.F1 == float(F_exact(K, 1)[0])


@pytest.mark.parametrize("m, r", REFERENCE_SETS)
def test_curve_samples_match_per_point_descent(m, r):
    K = CantorSet(m=m, r=r)
    for level in range(1, 8):
        _assert_grid_matches_descent(cantor.curve_samples(K, level))


def test_curve_samples_match_per_point_descent_at_level_10(curve10):
    _assert_grid_matches_descent(curve10)


def test_curve_level_guard(triadic_set):
    with pytest.raises(ValueError):
        cantor.curve_samples(triadic_set, cantor.DESCENT_CAP + 1)


# -- Gauss map on the arc ------------------------------------------------------

def test_gauss_on_gamma_orientation(curve10):
    # the normal at gamma(t) has angle t + theta(t): the clockwise quarter
    # turn of the unit tangent, the one pointing outward
    g = norms.unit_vector(curve10.normal_angles)
    assert np.allclose(g[0], [1.0, 0.0], atol=1e-15)
    beta = _beta(curve10)
    assert np.allclose(g, np.stack([beta[:, 1], -beta[:, 0]], axis=1), atol=1e-12)
    assert np.all(np.sum(_gamma(curve10) * g, axis=1) > 0.0)


def test_curve_samples_nonconvex_F_raises_typed_error(triadic_set, monkeypatch):
    # a strictly concave F with F(1) = 1/8: only the convexity invariant breaks
    exact_grid = cantor._exact_grid

    def concave_F(K, level):
        t, f, _, gap = exact_grid(K, level)
        a, unit = t   # F = t/4 - t^2/8 = (4 a U - 2 a^2) / (16 U^2)
        return t, f, ([4 * x * unit - 2 * x * x for x in a], 16 * unit * unit), gap

    monkeypatch.setattr(cantor, "_exact_grid", concave_F)
    with pytest.raises(CurveInvariantFailed, match="convex"):
        cantor.curve_samples(triadic_set, 4)


def test_gauss_on_gamma_angle_monotone(curve10):
    angles = curve10.normal_angles
    assert np.all(np.diff(angles) > 0.0)


def _gauss_angles(norm, points):
    g = norms.gauss_map(norm, points)
    return np.arctan2(g[:, 1], g[:, 0])


def test_table_gauss_at_arc_nodes_is_grid_normal(curve10, ce_norm):
    # every grid point gamma(t) is a table node's boundary point, so the
    # table's Gauss map there is the grid normal t + theta(t)
    got = _gauss_angles(ce_norm, _gamma(curve10))
    assert np.max(np.abs(got - curve10.normal_angles)) <= 1e-13


@pytest.mark.parametrize("level", [10, 12])
def test_table_gauss_image_of_level_intervals(triadic_set, level):
    # the Gauss-map angle gained over the level-L intervals of K is
    # cover(K_L) from the t-part of t + theta(t) plus the theta gains, which
    # are theta(1) minus the gap gains: the upper gap-sum bound
    curve = cantor.curve_samples(triadic_set, level)
    model = cantor.build_norm(curve)
    ends = curve.t[~curve.is_gap_mid]   # the level intervals' endpoints, in order
    angle = _gauss_angles(model, norms.unit_vector(ends))
    K = curve.K
    for L in range(level + 1):
        every = K.m ** (level - L)
        gained = math.fsum((angle[1::2][every - 1::every] - angle[0::2][::every]).tolist())
        _, upper = cantor.image_measure_bounds(curve, L)
        assert gained == pytest.approx(float(K.m * K.r) ** L + upper, abs=1e-9), L


# -- measure bounds -----------------------------------------------------------

def test_image_measure_bounds(curve10):
    prev_lower = -np.inf
    for k in range(4, 11):
        lower, upper = cantor.image_measure_bounds(curve10, k)
        assert 0.0 < lower <= upper
        assert lower >= prev_lower - 1e-15
        prev_lower = lower
    lower10, upper10 = cantor.image_measure_bounds(curve10, 10)
    assert lower10 == pytest.approx(0.126014145067989, abs=1e-9)


def test_image_measure_bounds_match_per_point_gap_sum(curve10, curve12):
    # theta1 minus the fsum of theta gains over gaps_upto(k), theta from the
    # per-point exact descents; np.arctan on an array, as the curve's theta
    # column is made.  Every gap of level <= k is one of level <= 10, so one
    # table of theta serves every k.
    K = curve10.K
    ends = [t for gap in gaps_upto(K, 10) for t in gap]
    psi = [float(cantor._f_exact(K, t)[0]) / (4.0 * (1.0 - float(F_exact(K, t)[0])))
           for t in ends]
    theta = dict(zip(ends, np.arctan(np.array(psi)).tolist()))
    for curve, levels in ((curve10, range(1, 11)), (curve12, (10,))):
        for k in levels:
            upper = curve.theta1 - math.fsum(theta[hi] - theta[lo] for lo, hi in gaps_upto(K, k))
            lower = upper - cantor.GAP_TILT_RATE_BOUND * float(K.m * K.r) ** k
            assert cantor.image_measure_bounds(curve, k) == (lower, upper)
    cantor.image_measure_bounds(curve10, curve10.level)
    with pytest.raises(ValueError):
        cantor.image_measure_bounds(curve10, curve10.level + 1)


def test_f_image_bracket_oracle(triadic_set):
    # every gap maps to an interval of half its length, and the gaps of
    # level <= k leave length (m r)^k, so the level-k intervals map to
    # total length (1 + (m r)^k) / 2
    for k in (4, 8, 12):
        upper = 0.5 * (1.0 + float(triadic_set.m * triadic_set.r) ** k)
        # oracle: sum of f-increments over the level-k intervals
        starts, length = level_intervals(triadic_set, k)
        total = sum(
            cantor.f_eval(triadic_set, a + length) - cantor.f_eval(triadic_set, a)
            for a in starts
        )
        assert total == pytest.approx(upper, abs=1e-12)


def test_monotone_product_lower_bound(triadic_set):
    # h = f*g for increasing positive g keeps image increments above
    # g(1/4) times the f-increments on [1/4, 1]
    g = lambda t: 1.0 + t * t
    floor = g(0.25)
    starts, length = level_intervals(triadic_set, 8)
    for a in starts:
        if a < Fraction(1, 4):
            continue
        b = a + length
        fa, fb = cantor.f_eval(triadic_set, a), cantor.f_eval(triadic_set, b)
        assert fb * g(float(b)) - fa * g(float(a)) >= floor * (fb - fa) - 1e-15


# -- norm assembly --------------------------------------------------------------

def test_build_norm_table_invariants(ce_norm):
    table = ce_norm.support
    assert table.antipodal_defect() <= 1e-10
    assert table.convexity_slack() > 0.0
    # the arc covers normal angles up to 1 + theta(1), the glue the rest of
    # [0, pi), and both have antipodes
    phi1 = 1.0 + ce_norm.curve.theta1
    for lo, hi in ((0.0, phi1), (phi1, np.pi)):
        for shift in (0.0, np.pi):
            assert np.any((lo + shift < table.phi) & (table.phi < hi + shift))
    # the arc's nodes are the grid normal angles, and node i + n/2 is node i
    # turned by pi with equal knot widths
    arc = len(ce_norm.curve.t)
    assert np.max(np.abs(table.phi[:arc] - ce_norm.curve.normal_angles)) <= 2.0**-51
    half = len(table.phi) // 2
    assert np.array_equal(table.phi[half:], table.phi[:half] + np.pi)
    assert np.array_equal(np.diff(table.phi[half:]), np.diff(table.phi[:half]))


@pytest.mark.parametrize("m, r", [(2, Fraction(1, 3)), (3, Fraction(1, 5)), (2, Fraction(1, 4))])
def test_closing_arc_is_a_constant(m, r):
    # a symmetric Cantor staircase integrates to 1/2 over [0, 1], so
    # F(1) = 1/8 and theta(1) = arctan(2/7): the glue joins the same end
    # data for every set, and its quintic is convex
    K = cantor.CantorSet(m, r)
    for level in (3, 5, 7):
        curve = cantor.curve_samples(K, level)
        assert curve.F1 == 0.125
        assert curve.theta1 == math.atan(2.0 / 7.0)
        phi1 = 1.0 + curve.theta1
        poly, _ = cantor._quintic_hermite(phi1, np.pi, (1.0 - curve.F1) * math.cos(curve.theta1),
                                          -(1.0 - curve.F1) * math.sin(curve.theta1), 1.0, 0.0)
        dense = np.linspace(phi1, np.pi, 4096)
        vals = poly(dense)
        second = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / (dense[1] - dense[0]) ** 2
        assert np.min(vals[1:-1] + second) > 0.0


def test_glue_quintic_meets_the_end_derivatives(curve10):
    # a table's spline is C^1 by construction, one dh per node; the glue
    # must also leave the arc and reach the antipode of gamma(0) with the
    # slopes it was given
    phi1 = 1.0 + curve10.theta1
    h_a = (1.0 - curve10.F1) * math.cos(curve10.theta1)
    dh_a = -(1.0 - curve10.F1) * math.sin(curve10.theta1)
    poly, dpoly = cantor._quintic_hermite(phi1, np.pi, h_a, dh_a, 1.0, 0.0)
    assert abs(dpoly(phi1) - dh_a) <= 1e-12 and abs(dpoly(np.pi)) <= 1e-12
    assert abs(poly(phi1) - h_a) <= 1e-12 and abs(poly(np.pi) - 1.0) <= 1e-12


def test_level_15_default_table_refused_and_level_14_builds(triadic_set):
    # at level 15 the rounded node values leave the spline's h + h'' at
    # -0.751 on some segments, though every second divided difference of
    # the nodes is positive
    with pytest.raises(NotStrictlyConvex, match=r"h \+ h''"):
        cantor.build_norm(cantor.curve_samples(triadic_set, 15))
    assert cantor.build_norm(cantor.curve_samples(triadic_set, 14)).support.convexity_slack() > 0.02


def test_build_norm_carries_its_curve(curve10, ce_norm):
    assert ce_norm.curve is curve10
    assert norms.euclidean().curve is None
    assert norms.from_support_table(ce_norm.support).curve is None


def test_build_norm_gauss_properties(ce_norm):
    rep = norms.check_gauss_properties(ce_norm, 1024)
    assert rep.monotone
    assert rep.min_inner > 0.0
    assert rep.antipodality_defect <= 1e-12


def test_build_norm_support_values(curve10, ce_norm):
    # along the constructed arc the support at angle t + theta(t) is
    # (1 - F) cos(theta)
    table = ce_norm.support
    for idx in np.linspace(5, len(curve10.t) - 5, 17).astype(int):
        t = curve10.t[idx]
        phi = curve10.normal_angles[idx]
        expect = (1.0 - curve10.F[idx]) * math.cos(curve10.theta[idx])
        assert float(table.support(phi)) == pytest.approx(expect, abs=5e-5)


def test_build_norm_glue_failure(curve10, monkeypatch):
    def concave(x0, x1, y0, dy0, y1, dy1):
        poly = lambda x: -np.ones_like(np.asarray(x, dtype=float))
        dpoly = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        return poly, dpoly

    monkeypatch.setattr(cantor, "_quintic_hermite", concave)
    with pytest.raises(NotStrictlyConvex):
        cantor.build_norm(curve10)
