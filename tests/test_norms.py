import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import minimize_scalar

from normproj import VERSION_HEADER, cantor, norms
from normproj.errors import NotSmoothHere, NotStrictlyConvex
from normproj.norms import HyperplaneNormal, SupportTable
from normproj.roots import brentq


def closed_form_models():
    return [
        norms.euclidean(),
        norms.lp(1.5),
        norms.lp(3.0),
        norms.lp(8.0),
        norms.inner_product(np.diag([1.0, 4.0])),
    ]


# -- evaluation ------------------------------------------------------------

def test_eval_examples():
    assert norms.eval_norm(norms.euclidean(), np.array([3.0, 4.0])) == pytest.approx(5.0)
    got = norms.eval_norm(norms.lp(3.0), np.array([1.0, 1.0]))
    assert got == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    got = norms.eval_norm(norms.inner_product(np.diag([1.0, 4.0])), np.array([1.0, 1.0]))
    assert got == pytest.approx(math.sqrt(5.0), abs=1e-12)


def test_eval_zero_iff_origin():
    for model in closed_form_models():
        assert norms.eval_norm(model, np.zeros(2)) == 0.0
        assert norms.eval_norm(model, np.array([1e-8, 0.0])) > 0.0


def test_eval_lp_huge_p_rescales_out_of_range_rows(rng):
    # |x_i|^p under- or overflows long before the norm does
    assert norms.eval_norm(norms.lp(500.0), np.array([1e-3, 0.0])) == 1e-3
    assert norms.eval_norm(norms.lp(1100.0), np.array([2.0, 0.0])) == 2.0
    for p in (500.0, 1100.0, 3000.0):
        model = norms.lp(p)
        assert norms.eval_norm(model, np.zeros(2)) == 0.0
        xs = rng.standard_normal((200, 2)) * 10.0 ** rng.uniform(-200.0, 200.0, size=(200, 1))
        got = np.asarray(norms.eval_norm(model, xs))
        m = np.max(np.abs(xs), axis=1)
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        # max |x_i| <= ||x||_p <= 2^(1/p) max |x_i|
        assert np.all(got >= m * (1.0 - 1e-15)) and np.all(got <= m * 2.0 ** (1.0 / p) * (1.0 + 1e-15))
        rows = np.array([norms.eval_norm(model, x) for x in xs])
        assert got.tobytes() == rows.tobytes()
    # on the check_gauss_properties grid of lp 3000 some power sums are subnormal
    model, xs = norms.lp(3000.0), norms.unit_vector(2.0 * np.pi * np.arange(1024) / 1024)
    m = np.max(np.abs(xs), axis=1)
    assert norms.eval_norm(model, xs).tobytes() == (m * norms.eval_norm(model, xs / m[:, None])).tobytes()


def test_homogeneity_and_symmetry(rng):
    for model in closed_form_models():
        xs = rng.standard_normal((1000, 2))
        cs = rng.uniform(0.1, 10.0, size=1000)
        base = np.asarray(norms.eval_norm(model, xs))
        scaled = np.asarray(norms.eval_norm(model, xs * cs[:, None]))
        assert np.max(np.abs(scaled - cs * base)) <= 1e-12 * np.max(scaled)
        neg = np.asarray(norms.eval_norm(model, -xs))
        assert np.max(np.abs(neg - base)) <= 1e-12 * np.max(base)


def test_homogeneity_support_table(ce_norm, rng):
    xs = rng.standard_normal((1000, 2))
    cs = rng.uniform(0.1, 10.0, size=1000)
    for x, c in zip(xs, cs):
        base = norms.eval_norm(ce_norm, x)
        assert norms.eval_norm(ce_norm, c * x) == pytest.approx(c * base, rel=1e-12)
        assert norms.eval_norm(ce_norm, -x) == pytest.approx(base, rel=1e-12)


def test_every_kind_stack_equals_rows(ce_norm, rng):
    # one expression per closed form on the stack of rows: a point alone
    # gets the bits of its row in any stack
    models = (norms.euclidean(), norms.lp(1.5), norms.lp(3.0),
              norms.inner_product(np.diag([1.0, 4.0])),
              norms.inner_product(np.array([[2.0, 1.0], [1.0, 3.0]])), ce_norm)
    xs = rng.standard_normal((2000, 2)) * rng.uniform(0.1, 10.0, size=(2000, 1))
    for model in models:
        for func in (norms.eval_norm, norms.gauss_map, norms.norm_gradient):
            batch = np.asarray(func(model, xs))
            rows = np.array([func(model, x) for x in xs])
            assert batch.tobytes() == rows.tobytes(), (model.kind, model.p, func.__name__)


def test_construction_rejects_non_strictly_convex():
    with pytest.raises(NotStrictlyConvex):
        norms.lp(1.0)
    with pytest.raises(NotStrictlyConvex):
        norms.lp(np.inf)
    with pytest.raises(NotStrictlyConvex):
        norms.inner_product(np.diag([1.0, 0.0]))
    with pytest.raises(NotStrictlyConvex):
        norms.inner_product(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_inner_product_refusals_name_their_cause():
    # an indefinite Q is not positive-definite; a positive-definite Q whose
    # smallest eigenvalue is at most 1e-12 * its largest meets the cap
    with pytest.raises(NotStrictlyConvex, match="Q must be positive-definite"):
        norms.inner_product(np.diag([1.0, -1.0]))
    with pytest.raises(NotStrictlyConvex, match=r"smallest eigenvalue 1 must exceed 1e-12 \* "
                                                r"its largest eigenvalue 1e\+15"):
        norms.inner_product(np.diag([1e15, 1.0]))
    norms.inner_product(np.diag([1e11, 1.0]))


def test_inner_product_cap_is_relative_to_the_scale_of_q():
    # the cap once held the smallest eigenvalue above an absolute 1e-12, so
    # c I was refused for c <= 1e-12 although it is the euclidean norm scaled
    for c in (1e-300, 1e-13, 1e300):
        assert norms.inner_product(c * np.eye(2)).Q[0, 0] == c
        with pytest.raises(NotStrictlyConvex, match="1e-12"):
            norms.inner_product(c * np.diag([1.0, 1e-13]))
    # the symmetry bound is relative too, and a subnormal eigenvalue, whose
    # inverse overflows, is refused
    with pytest.raises(NotStrictlyConvex, match="symmetric"):
        norms.inner_product(1e-300 * np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(NotStrictlyConvex, match="normal float"):
        norms.inner_product(1e-310 * np.eye(2))
    # and Q's inverse was built from eigenvalues clamped to 1e-12
    for c in (1e-300, 1e-13):
        model = norms.inner_product(c * np.diag([1.0, 4.0]))
        assert norms.inverse_gauss(model, [1.0, 0.0]) == pytest.approx([c ** -0.5, 0.0], rel=1e-15)


def test_gauss_map_normalizes_an_out_of_range_normal_on_its_own_scale():
    # Q x is finite but its length over- or underflows at every scale of x:
    # the map read [0, 0] under 1e300 Q and [inf, inf] under 1e-300 Q
    q = np.array([[1.0, 0.3], [0.3, 2.0]])
    x = np.array([[3.0, 1.0], [-1.0, 2.0]])
    want = norms.gauss_map(norms.inner_product(q), x)
    for c in (1e300, 1e-300):
        model = norms.inner_product(c * q)
        assert np.allclose(norms.gauss_map(model, x), want, rtol=0.0, atol=1e-15), c
        assert np.allclose(norms.gauss_map(model, norms.sphere_point(model, x)), want, rtol=0.0, atol=1e-15), c


def test_support_table_not_ready():
    with pytest.raises(ValueError, match="needs its table"):
        norms.NormModel(kind="support_table")


# -- Gauss map ---------------------------------------------------------------

def _finite_difference_normal(model, x, step=1e-6):
    """Independent oracle: normalized central-difference gradient."""
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (norms.eval_norm(model, x + e) - norms.eval_norm(model, x - e)) / (2 * step)
    return grad / np.linalg.norm(grad)


def test_gauss_examples():
    for ang in (0.3, 1.2, 4.0):
        v = norms.unit_vector(ang)
        assert np.allclose(norms.gauss_map(norms.euclidean(), v), v, atol=1e-15)
    assert np.allclose(norms.gauss_map(norms.lp(3.0), np.array([1.0, 0.0])), [1.0, 0.0])
    x = np.array([1.0, 1.0]) / 2.0 ** (1.0 / 3.0)
    got = norms.gauss_map(norms.lp(3.0), x)
    assert np.allclose(got, np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-12)
    assert np.allclose(got, _finite_difference_normal(norms.lp(3.0), x), atol=1e-5)


def test_gauss_outward(rng, ce_norm):
    for model in closed_form_models() + [ce_norm]:
        for _ in range(20):
            x = norms.sphere_point(model, rng.standard_normal(2))
            assert float(np.dot(x, norms.gauss_map(model, x))) > 0.0


def test_gauss_antipodality(rng, ce_norm):
    for model in closed_form_models() + [ce_norm]:
        for _ in range(50):
            v = norms.sphere_point(model, rng.standard_normal(2))
            defect = np.linalg.norm(norms.gauss_map(model, -v) + norms.gauss_map(model, v))
            assert defect <= 1e-12


def test_gauss_and_gradient_rescue_out_of_range_rows(rng):
    # |x_i|^(p-1), the squares of the Gauss vector and r^(p-1) under- or
    # overflow long before x does; both maps are constant along rays
    assert np.array_equal(norms.gauss_map(norms.lp(3000.0), [1e-3, 0.0]), [1.0, 0.0])
    diagonal = np.full(2, math.sqrt(0.5))
    for model, s in ((norms.lp(400.0), 1e-3), (norms.lp(3.0), 1e100), (norms.euclidean(), 1e200),
                     (norms.euclidean(), 1e-200), (norms.inner_product(2.0 * np.eye(2)), 1e200)):
        assert np.allclose(norms.gauss_map(model, [s, s]), diagonal, rtol=0.0, atol=4e-16), model
    for p in (500.0, 1000.0, 3000.0):
        model = norms.lp(p)
        xs = rng.standard_normal((200, 2)) * 10.0 ** rng.uniform(-200.0, 200.0, size=(200, 1))
        unit = xs / np.max(np.abs(xs), axis=1, keepdims=True)
        for fn in (norms.gauss_map, norms.norm_gradient):
            got = fn(model, xs)
            assert np.allclose(got, fn(model, unit), rtol=0.0, atol=1e-15), (fn.__name__, p)
        # Euler's identity <grad ||x||, x> = ||x||
        euler = np.sum(norms.norm_gradient(model, xs) * xs, axis=-1)
        assert np.allclose(euler, norms.eval_norm(model, xs), rtol=1e-12, atol=0.0), p
    # rows in range keep the bits of the formulas as written
    for model in (norms.lp(3.0), norms.lp(8.0)):
        xs = rng.standard_normal((200, 2))
        g = np.sign(xs) * np.abs(xs) ** (model.p - 1.0)
        assert norms.gauss_map(model, xs).tobytes() == (g / np.linalg.norm(g, axis=-1, keepdims=True)).tobytes()
        r = norms.eval_norm(model, xs)[:, None]
        assert norms.norm_gradient(model, xs).tobytes() == (g / r ** (model.p - 1.0)).tobytes()


@pytest.mark.parametrize("model", [norms.euclidean(), norms.inner_product(np.diag([1.0, 4.0]))],
                         ids=["euclidean", "inner-product"])
@pytest.mark.parametrize("x", [[1e200, 1e200], [1e-200, 1e-200], [1e-170, 0.0],
                               [1e-160, 1e-160], [1e-162, 1e-162]],
                         ids=["huge", "tiny", "tiny-axis", "subnormal", "subnormal-edge"])
def test_p2_kinds_rescue_out_of_range_rows(model, x):
    # x_i^2 over- or underflows, or sums to a subnormal, long before x does
    x = np.array(x)
    m = np.max(np.abs(x))
    assert norms.eval_norm(model, x) == m * norms.eval_norm(model, x / m)
    assert norms.sphere_point(model, x).tobytes() == norms.sphere_point(model, x / m).tobytes()
    assert HyperplaneNormal(x).w.tobytes() == HyperplaneNormal(x / m).w.tobytes()
    grad, unit = norms.norm_gradient(model, x), norms.norm_gradient(model, x / m)
    assert np.all(np.isfinite(grad))
    assert np.allclose(grad, unit, rtol=0.0, atol=1e-15)


def test_sphere_point_rescues_a_nan_size():
    # the two terms x_i (Q x)_i of <x, Q x> overflow to +inf and -inf
    model = norms.inner_product(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = np.array([-1e200, 3e199])
    m = np.max(np.abs(x))
    assert norms.sphere_point(model, x).tobytes() == norms.sphere_point(model, x / m).tobytes()
    assert norms.eval_norm(model, x) == m * norms.eval_norm(model, x / m)


# -- inverse Gauss -----------------------------------------------------------

def _support_oracle(model, w):
    """Independent value-only maximization of <x(phi), w> over the angle sweep."""

    def score(phi):
        x = norms.sphere_point(model, norms.unit_vector(phi))
        return -float(np.dot(x, w))

    theta = math.atan2(w[1], w[0])
    phi = minimize_scalar(score, bounds=(theta - 1.2, theta + 1.2), method="bounded",
                          options={"xatol": 1e-12}).x
    return norms.sphere_point(model, norms.unit_vector(phi))


def test_inverse_gauss_examples():
    w = norms.unit_vector(0.8)
    assert np.allclose(norms.inverse_gauss(norms.euclidean(), w), w, atol=1e-14)

    w = np.array([1.0, 1.0]) / math.sqrt(2.0)
    got = norms.inverse_gauss(norms.lp(3.0), w)
    expect = np.array([1.0, 1.0]) / 2.0 ** (1.0 / 3.0)
    assert np.allclose(got, expect, atol=1e-12)
    assert np.allclose(got, _support_oracle(norms.lp(3.0), w), atol=1e-7)

    q = np.diag([1.0, 4.0])
    model = norms.inner_product(q)
    w = norms.unit_vector(1.1)
    qi = np.linalg.inv(q)
    expect = qi @ w / math.sqrt(w @ qi @ w)  # Lagrange multiplier solution
    assert np.allclose(norms.inverse_gauss(model, w), expect, atol=1e-12)


def test_inverse_gauss_lp_near_one_rescues_underflowing_powers(rng):
    # w is raised to q - 1 = 1/(p - 1); at p = 1.0001 every coordinate of
    # the unit w = (1, 2)/sqrt(5) underflows to 0, and at p = 1.001 one does
    w = np.array([1.0, 2.0])
    for p in (1.0001, 1.001):
        assert np.allclose(norms.inverse_gauss(norms.lp(p), w), [0.0, 1.0], rtol=0.0, atol=1e-14), p
    assert np.array_equal(norms.inverse_gauss(norms.lp(1.0001), [-3.0, -3.0]),
                          norms.sphere_point(norms.lp(1.0001), [-1.0, -1.0]))
    # directions whose powers stay in range keep the bits of the formula as written
    for p in (1.5, 3.0, 8.0):
        model = norms.lp(p)
        for w in rng.standard_normal((50, 2)):
            unit = w / np.linalg.norm(w)
            dual = np.sign(unit) * np.abs(unit) ** (p / (p - 1.0) - 1.0)
            assert norms.inverse_gauss(model, w).tobytes() == norms.sphere_point(model, dual).tobytes()


def test_sphere_point_invariant(rng, ce_norm):
    for model in closed_form_models() + [ce_norm]:
        for _ in range(20):
            p = norms.sphere_point(model, rng.standard_normal(2))
            assert abs(float(norms.eval_norm(model, p)) - 1.0) <= 1e-12


def test_gauss_roundtrip_all_models(ce_norm):
    angles = 2.0 * np.pi * (np.arange(256) + 0.5) / 256
    for model in closed_form_models() + [ce_norm]:
        worst = 0.0
        for ang in angles:
            w = norms.unit_vector(ang)
            x = norms.inverse_gauss(model, w)
            g = norms.gauss_map(model, x)
            err = abs(math.atan2(w[0] * g[1] - w[1] * g[0], float(np.dot(w, g))))
            worst = max(worst, err)
        assert worst <= 1e-8, f"{model.kind} roundtrip {worst:.2e}"


# -- sweep diagnostics -------------------------------------------------------

def test_check_gauss_properties_examples():
    rep = norms.check_gauss_properties(norms.euclidean(), 1024)
    assert rep.antipodality_defect == 0.0
    assert rep.monotone
    assert rep.min_inner == pytest.approx(1.0, abs=1e-15)

    rep = norms.check_gauss_properties(norms.lp(1.5), 1024)
    assert rep.antipodality_defect <= 1e-12
    assert rep.monotone
    assert rep.min_inner > 0.0

    rep = norms.check_gauss_properties(norms.lp(8.0), 2048)
    assert rep.monotone
    # the normals wind once around the circle
    g = norms.gauss_map(norms.lp(8.0), norms.unit_vector(2.0 * np.pi * np.arange(2048) / 2048))
    g_next = np.roll(g, -1, axis=0)
    turns = np.arctan2(g[:, 0] * g_next[:, 1] - g[:, 1] * g_next[:, 0], np.sum(g * g_next, axis=1))
    assert float(np.sum(turns)) == pytest.approx(2.0 * np.pi, abs=1e-9)

    # on the flat sides neighbouring normals round to the same float pair
    for p in (300.0, 3000.0):
        assert norms.check_gauss_properties(norms.lp(p), 1024).monotone, p
    # grid radii whose power sums are subnormal are read at unit scale
    assert norms.check_gauss_properties(norms.lp(3000.0), 1024).min_inner == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bend", ["back", "constant"])
def test_check_gauss_properties_flags_a_map_that_does_not_turn_once(monkeypatch, bend):
    true_map = norms.gauss_map

    def fake(norm, x):
        g = true_map(norm, x)
        if bend == "back":
            return g[..., ::-1]   # the reflection turns clockwise
        return np.broadcast_to(np.array([1.0, 0.0]), g.shape)

    monkeypatch.setattr(norms, "gauss_map", fake)
    for model in (norms.euclidean(), norms.lp(3.0)):
        assert not norms.check_gauss_properties(model, 256).monotone


def test_check_gauss_properties_guards():
    with pytest.raises(ValueError):
        norms.check_gauss_properties(norms.euclidean(), 8)


def test_fixed_points_euclidean():
    far, near = norms.find_gauss_fixed_points(norms.euclidean())
    assert np.allclose(far, [1.0, 0.0])
    assert np.allclose(near, [0.0, 1.0])
    assert norms.gauss_fixed_point_defect(norms.euclidean(), far) <= 1e-12


def test_fixed_points_ellipse():
    model = norms.inner_product(np.diag([1.0, 4.0]))
    far, near = norms.find_gauss_fixed_points(model)
    assert np.allclose(far, [1.0, 0.0], atol=1e-6)
    assert np.allclose(np.abs(near), [0.0, 0.5], atol=1e-6)
    assert norms.gauss_fixed_point_defect(model, far) <= 1e-6
    assert norms.gauss_fixed_point_defect(model, near) <= 1e-6


def test_fixed_points_lp4_dense_oracle():
    model = norms.lp(4.0)
    far, near = norms.find_gauss_fixed_points(model)
    assert norms.polar_angle(far) == pytest.approx(np.pi / 4.0, abs=1e-6)
    assert norms.polar_angle(near) == pytest.approx(0.0, abs=1e-6)
    # dense sampling oracle for the farthest point
    t = np.linspace(0.0, np.pi, 20001)
    radii = 1.0 / np.asarray(norms.eval_norm(model, norms.unit_vector(t)))
    assert abs(t[np.argmax(radii)] - np.pi / 4.0) <= 2e-4
    assert norms.gauss_fixed_point_defect(model, far) <= 1e-6
    assert norms.gauss_fixed_point_defect(model, near) <= 1e-6


def test_fixed_points_counterexample(ce_norm):
    far, near = norms.find_gauss_fixed_points(ce_norm)
    assert norms.gauss_fixed_point_defect(ce_norm, far) <= 1e-6
    assert norms.gauss_fixed_point_defect(ce_norm, near) <= 1e-6
    assert np.linalg.norm(far) > np.linalg.norm(near)


def test_fixed_points_round_models_give_axis_points():
    circle = SupportTable(phi=2.0 * np.pi * np.arange(8) / 8, h=np.full(8, 2.0), dh=np.zeros(8))
    for model in (norms.lp(2.0), norms.inner_product(3.0 * np.eye(2)), norms.from_support_table(circle)):
        far, near = norms.find_gauss_fixed_points(model)
        assert np.allclose(far / np.linalg.norm(far), [1.0, 0.0], rtol=0.0, atol=1e-15)
        assert np.allclose(near / np.linalg.norm(near), [0.0, 1.0], rtol=0.0, atol=1e-15)
        assert norms.eval_norm(model, far) == pytest.approx(1.0, abs=1e-15)
        assert norms.eval_norm(model, near) == pytest.approx(1.0, abs=1e-15)


def test_fixed_points_inner_product_eigen_axes():
    # a spread of 3e-11 once passed the round-circle cutoff of a grid search
    # whose root window then held no sign change
    near_round = norms.inner_product(np.diag([1.0, 1.0 + 3e-11]))
    far, near = norms.find_gauss_fixed_points(near_round)
    assert np.array_equal(far, [1.0, 0.0])
    assert np.allclose(near, [0.0, (1.0 + 3e-11) ** -0.5], rtol=0.0, atol=1e-15)
    # eigenvalues (5 -+ sqrt 5) / 2 with eigenvectors (1, lambda - 2)
    model = norms.inner_product(np.array([[2.0, 1.0], [1.0, 3.0]]))
    far, near = norms.find_gauss_fixed_points(model)
    for got, lam in zip((far, near), ((5.0 - math.sqrt(5.0)) / 2.0, (5.0 + math.sqrt(5.0)) / 2.0)):
        v = np.array([1.0, lam - 2.0])
        assert np.allclose(got, v / np.linalg.norm(v) / math.sqrt(lam), rtol=0.0, atol=1e-15)
    for m in (near_round, model):
        for v in norms.find_gauss_fixed_points(m):
            assert norms.gauss_fixed_point_defect(m, v) <= 1e-15


def test_sphere_radius_bounds_are_the_extreme_radii(ce_norm):
    # the extreme radii of an ellipse turned off the axes fall between rays
    # of any fixed grid; they are 1/sqrt of the eigenvalues (5 +- sqrt 5)/2
    model = norms.inner_product(np.array([[2.0, 1.0], [1.0, 3.0]]))
    lo, hi = norms.sphere_radius_bounds(model)
    assert lo == pytest.approx(((5.0 + math.sqrt(5.0)) / 2.0) ** -0.5, rel=1e-15, abs=0.0)
    assert hi == pytest.approx(((5.0 - math.sqrt(5.0)) / 2.0) ** -0.5, rel=1e-15, abs=0.0)
    t = 2.0 * np.pi * np.arange(1 << 16) / (1 << 16)
    for model in closed_form_models() + [ce_norm]:
        lo, hi = norms.sphere_radius_bounds(model)
        radii = 1.0 / np.asarray(norms.eval_norm(model, norms.unit_vector(t)))
        assert lo <= np.min(radii) * (1.0 + 1e-15) and np.max(radii) <= hi * (1.0 + 1e-15), model.kind


def _rotated_ellipse_table(count=64, a=1.0, b=0.6, tilt=0.3):
    # support function of an ellipse with semi-axes a, b turned by ``tilt``,
    # whose extremes fall strictly inside knot segments
    phi = 2.0 * np.pi * np.arange(count) / count
    c, s = np.cos(phi - tilt), np.sin(phi - tilt)
    h = np.sqrt((a * c) ** 2 + (b * s) ** 2)
    return SupportTable(phi=phi, h=h, dh=(b * b - a * a) * s * c / h)


@pytest.fixture(scope="module")
def fixed_point_tables(ce_norm, curve12):
    return {"staircase10": ce_norm, "staircase12": cantor.build_norm(curve12),
            "ellipse": norms.from_support_table(_rotated_ellipse_table())}


@pytest.mark.parametrize("name", ["staircase10", "staircase12", "ellipse"])
def test_fixed_points_bound_dense_spline_grid(fixed_point_tables, name):
    model = fixed_point_tables[name]
    table = model.support
    values = table.support(2.0 * np.pi * np.arange(2**20) / 2**20)
    far, near = norms.find_gauss_fixed_points(model)
    assert table.support(norms.polar_angle(far)) >= np.max(values)
    assert table.support(norms.polar_angle(near)) <= np.min(values)
    assert norms.gauss_fixed_point_defect(model, far) <= 1e-15
    assert norms.gauss_fixed_point_defect(model, near) <= 1e-15
    if name == "ellipse":
        # both extremes are interior roots of h', not knots
        for v in (far, near):
            assert np.min(np.abs(norms.polar_angle(v) - table.phi)) > 1e-3


def _grid_search_fixed_points(norm, grid=4096):
    # the coarse radius sweep plus bracketed root of cross(u, G(u)) that the
    # closed forms replaced, kept as an oracle
    t = np.pi * np.arange(grid) / grid
    euclid_r = 1.0 / np.asarray(norms.eval_norm(norm, norms.unit_vector(t)))

    def cross(angle):
        u = norms.unit_vector(angle)
        g = norms.gauss_map(norm, u)
        return u[:, 0] * g[:, 1] - u[:, 1] * g[:, 0]

    step = np.pi / grid
    mid = t[[int(np.argmax(euclid_r)), int(np.argmin(euclid_r))]]
    return [norms.sphere_point(norm, norms.unit_vector(a))
            for a in brentq(cross, mid - step, mid + step, xtol=1e-15)]


def test_fixed_points_match_grid_search_oracle(ce_norm):
    models = (norms.lp(1.5), norms.lp(4.0), norms.lp(40.0), norms.inner_product(np.diag([1.0, 4.0])),
              norms.inner_product(np.array([[2.0, 1.0], [1.0, 3.0]])), ce_norm)
    for model in models:
        got = norms.find_gauss_fixed_points(model)
        for v, ref in zip(got, _grid_search_fixed_points(model), strict=True):
            # a fixed point stands for its antipode too
            assert min(np.max(np.abs(v - ref)), np.max(np.abs(v + ref))) <= 1e-9, (model.kind, model.p)


# -- hyperplane normals ------------------------------------------------------

def test_hyperplane_canonicalization(rng):
    for _ in range(100):
        v = rng.standard_normal(2)
        a, b = HyperplaneNormal(v), HyperplaneNormal(-v)
        assert np.allclose(a.w, b.w, atol=0.0)
        assert np.linalg.norm(a.w) == pytest.approx(1.0, abs=1e-15)
    w = HyperplaneNormal.from_angle(2.0)  # cos < 0: flipped representative
    assert w.w[0] > 0.0
    assert 0.0 <= w.angle < np.pi


@pytest.mark.parametrize("kind", ["euclidean", "lp", "inner_product", "support_table"])
def test_zero_and_non_finite_rows(kind, ce_norm):
    model = {"euclidean": norms.euclidean(), "lp": norms.lp(3.0), "support_table": ce_norm,
             "inner_product": norms.inner_product(np.array([[2.0, 1.0], [1.0, 3.0]]))}[kind]
    # the zero vector spans no ray, alone or as a row of a stack
    for fn in (norms.gauss_map, norms.norm_gradient, norms.inverse_gauss, norms.sphere_point):
        with pytest.raises(ValueError, match="spans no ray"):
            fn(model, [0.0, 0.0])
    for fn in (norms.gauss_map, norms.norm_gradient):
        with pytest.raises(ValueError, match="spans no ray"):
            fn(model, [[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="spans no ray"):
        HyperplaneNormal([0.0, 0.0])
    # nor does a vector with an infinite or NaN coordinate
    for bad in ([np.inf, 1.0], [np.nan, 1.0]):
        for fn in (norms.gauss_map, norms.norm_gradient, norms.inverse_gauss, norms.sphere_point):
            with pytest.raises(ValueError, match="spans no ray"):
                fn(model, bad)
            with pytest.raises(ValueError, match="spans no ray"):
                fn(model, [[1.0, 2.0], bad])
        with pytest.raises(ValueError, match="spans no ray"):
            HyperplaneNormal(bad)
    # the norm is defined there, and an infinite coordinate keeps it infinite
    assert norms.eval_norm(model, [0.0, 0.0]) == 0.0
    assert norms.eval_norm(model, [np.inf, 1.0]) == np.inf
    assert norms.eval_norm(model, [[0.0, 0.0], [np.inf, 1.0]]).tolist() == [0.0, np.inf]


def test_hyperplane_rejects_zero():
    with pytest.raises(ValueError):
        HyperplaneNormal(np.zeros(2))


def test_non_planar_vectors_refused(ce_norm):
    models = closed_form_models() + [ce_norm]
    for bad in ([1.0, 2.0, 2.0], [[1.0, 2.0, 2.0]], [3.0], 5.0):
        with pytest.raises(ValueError, match="planar"):
            HyperplaneNormal(bad)
        for model in models:
            for fn in (norms.eval_norm, norms.gauss_map, norms.norm_gradient, norms.inverse_gauss):
                with pytest.raises(ValueError, match="planar"):
                    fn(model, bad)


# -- support tables ---------------------------------------------------------

def test_support_table_csv_roundtrip(tmp_path, ce_norm):
    path = tmp_path / "table.csv"
    table = ce_norm.support
    table.to_csv(path)
    loaded = SupportTable.from_csv(path)
    # round-trip digits: the table read back holds the values written, bit
    # for bit but for the sign of a zero
    for name in ("phi", "h", "dh"):
        assert np.array_equal(getattr(loaded, name), getattr(table, name)), name
    loaded.validate()


def _per_row_csv(table):
    # the row-at-a-time writer to_csv replaced, with round-trip digits
    rows = [f"{float(p) + 0.0!r},{float(h) + 0.0!r},{float(dh) + 0.0!r}\n"
            for p, h, dh in zip(table.phi, table.h, table.dh)]
    return (VERSION_HEADER + "\nphi,h,dh\n" + "".join(rows)).encode("utf-8")


def test_support_table_csv_bytes_equal_per_row_writer(tmp_path, monkeypatch, triadic_set):
    level8 = cantor.build_norm(cantor.curve_samples(triadic_set, 8)).support
    signed = SupportTable(phi=[-0.0, 0.5, np.pi, 4.0], h=[1.0, -0.0, 1.0 / 3.0, 2.0e-300],
                          dh=[0.0, -0.0, -1.0e-17, 123456789.123456789])
    path = tmp_path / "table.csv"
    for chunk in (8192, 7):
        monkeypatch.setattr(norms, "_CSV_CHUNK_ROWS", chunk)
        for table in (level8, signed):
            table.to_csv(path)
            assert path.read_bytes() == _per_row_csv(table)
    assert b"-0," not in path.read_bytes()


def test_support_table_corner_not_smooth():
    # cross-polytope: corners at the axes make the normal multivalued there
    n = 512
    phi = 2.0 * np.pi * np.arange(n) / n
    h = np.maximum(np.abs(np.cos(phi)), np.abs(np.sin(phi)))
    step = 2.0 * np.pi / n
    dh = (np.roll(h, -1) - np.roll(h, 1)) / (2.0 * step)  # periodic differences
    table = SupportTable(phi=phi, h=h, dh=dh)
    model = norms.NormModel(kind="support_table", support=table)
    with pytest.raises(NotSmoothHere):
        norms.gauss_map(model, np.array([1.0, 0.0]))


def _warped_ellipse_table(n, rho, warp):
    # semi-axes 1 and 1/2 turned by rho, on a grid warped by a pi-periodic
    # shift, so node i + n/2 is still the antipode of node i
    s = 2.0 * np.pi * np.arange(n) / n
    phi = s + 0.5 * warp * np.sin(2.0 * s)
    c, sn = np.cos(phi - rho), np.sin(phi - rho)
    h = np.sqrt(c * c + 0.25 * sn * sn)
    return SupportTable(phi=phi, h=h, dh=-0.75 * c * sn / h)


def test_convexity_slack_on_a_non_uniform_grid():
    # h + h'' is the curvature radius a^2 b^2 / h^3, least b^2 / a = 1/4
    table = _warped_ellipse_table(512, rho=1.0, warp=0.4)
    assert table.convexity_slack() == pytest.approx(0.25, abs=1e-3)
    table.validate()


def test_table_whose_spline_is_not_convex_refused(wide_segment_table):
    # the second divided differences at the nodes read +1.1e-4 on this
    # table; the spline the kernel evaluates dips to h + h'' = -362
    assert wide_segment_table.convexity_slack() == pytest.approx(-362.85, abs=0.01)
    with pytest.raises(NotStrictlyConvex, match=r"h \+ h''"):
        norms.from_support_table(wide_segment_table)


def test_corner_probe_reads_the_spline_curvature():
    # an ellipse with semi-axes 1 and 0.02: its curvature radius
    # h + h'' = a^2 b^2 / h^3 is b^2 = 4e-4 at the tip (1, 0), below the
    # 1e-3 h corner threshold, and 1 / b = 50 at (0, 1)
    b, n = 0.02, 512
    phi = 2.0 * np.pi * np.arange(n) / n
    c, s = np.cos(phi), np.sin(phi)
    h = np.sqrt(c * c + b * b * s * s)
    model = norms.from_support_table(SupportTable(phi=phi, h=h, dh=-(1.0 - b * b) * c * s / h))
    with pytest.raises(NotSmoothHere):
        norms.gauss_map(model, np.array([1.0, 0.0]))
    assert norms.gauss_map(model, np.array([0.0, 1.0])) == pytest.approx([0.0, 1.0], abs=1e-12)
    g = norms.gauss_map(model, np.array([0.7, 0.01]))
    assert np.linalg.norm(g) == pytest.approx(1.0) and g[1] > 0.99


def test_support_table_validation_rejects_asymmetry(ce_norm):
    table = ce_norm.support
    h = table.h.copy()
    h[10] += 1e-3
    broken = SupportTable(phi=table.phi.copy(), h=h, dh=table.dh.copy())
    with pytest.raises(NotStrictlyConvex):
        broken.validate()


def test_support_table_refuses_malformed_input():
    n = 8
    phi = 2.0 * np.pi * np.arange(n) / n
    ones = np.ones(n)
    for bad in (np.nan, np.inf):
        h = ones.copy()
        h[3] = bad
        with pytest.raises(ValueError, match="finite"):
            SupportTable(phi=phi, h=h, dh=np.zeros(n))
        with pytest.raises(ValueError, match="finite"):
            SupportTable(phi=phi, h=ones, dh=np.where(np.arange(n) == 5, bad, 0.0))
    # unsorted angles, and a last angle that reaches the 2*pi wrap
    for angles in (phi[::-1], np.linspace(0.0, 2.0 * np.pi, n)):
        with pytest.raises(ValueError, match="increase strictly"):
            SupportTable(phi=angles, h=ones, dh=np.zeros(n))
    # a first angle below 0, outside the table's turn [0, 2*pi)
    with pytest.raises(ValueError, match="at or above 0"):
        SupportTable(phi=phi - 0.01, h=ones, dh=np.zeros(n))


def test_support_table_closes_onto_its_first_node():
    # an ellipse with semi-axes 1 and 1/2: the last knot segment ends at
    # phi_0 + 2*pi, not at 2*pi, so a table that starts above 0
    # interpolates as well as one that starts at 0
    x = norms.unit_vector(np.linspace(0.0, 2.0 * np.pi, 2001))
    exact = np.sqrt(x[:, 0] ** 2 + 4.0 * x[:, 1] ** 2)
    for start in (0.0, 0.001, 0.005):
        phi = start + 2.0 * np.pi * np.arange(512) / 512
        c, s = np.cos(phi), np.sin(phi)
        h = np.sqrt(c * c + 0.25 * s * s)
        model = norms.from_support_table(SupportTable(phi=phi, h=h, dh=-0.75 * c * s / h))
        assert np.max(np.abs(norms.eval_norm(model, x) - exact)) < 1e-8, start


def test_support_spline_equals_cubic_hermite_oracle(ce_norm, rng):
    # values and derivative bit for bit against SciPy, from which the
    # coefficient formulas and the evaluation order were taken
    table = ce_norm.support
    spline = CubicHermiteSpline(np.append(table.phi, 2.0 * np.pi),
                                np.append(table.h, table.h[0]), np.append(table.dh, table.dh[0]))
    deriv = spline.derivative()
    mids = 0.5 * (table.phi[1:] + table.phi[:-1])
    for angles in (table.phi, mids, rng.uniform(0.0, 2.0 * np.pi, 5000),
                   -rng.uniform(0.0, 20.0, 2000), np.array([2.0 * np.pi, -0.0, -1e-300]), 2.0 * np.pi):
        wrapped = np.mod(angles, 2.0 * np.pi)
        for ours, theirs in ((table.support(angles), spline(wrapped)),
                             (table.support_deriv(angles), deriv(wrapped))):
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()


# -- the table contact-angle kernel ------------------------------------------

def test_table_contact_angle_residual(ce_norm, rng):
    # the boundary point at the contact angle lies on the ray through x
    table = ce_norm.support
    nodes = table.boundary_point(table.phi)
    axes = norms.unit_vector(np.array([0.0, np.pi]))
    for xs in (rng.standard_normal((2000, 2)), nodes, axes):
        phi = norms._contact_angle(ce_norm, xs)
        b = table.boundary_point(phi)
        cross = (b[:, 0] * xs[:, 1] - b[:, 1] * xs[:, 0]) / np.linalg.norm(xs, axis=1)
        assert np.max(np.abs(cross)) < 1e-13
        assert np.all(np.sum(b * xs, axis=1) > 0.0)


def test_table_with_folded_boundary_points_refused():
    # a circle's support values with a wildly alternating h': the spline's
    # h + h'' reaches -9.19, and the node boundary points do not turn
    # monotonically, which the table's node angles refuse on their own, also
    # on first use of a norm whose table was never validated
    n = 64
    phi = 2.0 * np.pi * np.arange(n) / n
    table = SupportTable(phi=phi, h=np.ones(n), dh=0.5 * (-1.0) ** np.arange(n))
    with pytest.raises(NotStrictlyConvex, match=r"h \+ h''"):
        table.validate()
    with pytest.raises(NotStrictlyConvex, match="monoton"):
        table.node_angles()
    with pytest.raises(NotStrictlyConvex, match="monoton"):
        norms.eval_norm(norms.NormModel(kind="support_table", support=table), np.array([3.0, 4.0]))
    circle = SupportTable(phi=phi, h=np.ones(n), dh=np.zeros(n))
    assert norms.eval_norm(norms.from_support_table(circle), np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_node_points_equal_boundary_points_at_the_nodes(ce_norm, curve12, tmp_path):
    # the kernel frame reads the node boundary points from the table's h and
    # h'; at its own knots the spline returns exactly those
    read_back = tmp_path / "table.csv"
    ce_norm.support.to_csv(read_back)
    for table in (ce_norm.support, cantor.build_norm(curve12).support, SupportTable.from_csv(read_back)):
        assert table.node_points().tobytes() == table.boundary_point(table.phi).tobytes()
