import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from normproj import norms, projections as pj
from normproj.errors import DegenerateSplitting, KernelMismatch
from normproj.norms import HyperplaneNormal


def test_projections_refuse_non_planar_vectors(ce_norm):
    w = HyperplaneNormal.from_angle(0.4)
    for model in (norms.euclidean(), norms.lp(3.0), ce_norm):
        for fn in (pj.project_hyperplane, pj.project_hyperplane_direct):
            # a (4,) point used to pass project_hyperplane_direct as two rows
            for bad in ([1.0, 1.0, 1.0], np.ones((4, 3)), np.ones(4)):
                with pytest.raises(ValueError, match="planar"):
                    fn(model, w, bad)
            with pytest.raises(ValueError, match="planar"):
                fn(model, [1.0, 2.0, 2.0], [1.0, 1.0])


def test_projector_algebra(rng):
    for _ in range(100):
        w = HyperplaneNormal(rng.standard_normal(2))
        u = rng.standard_normal(2)
        if abs(np.dot(u, w.w)) < 0.1:
            continue
        proj = pj.projector_from_kernel(w, u)
        assert proj.idempotency_defect() <= 1e-12
        x = rng.standard_normal(2)
        assert abs(np.dot(proj.apply(x), w.w)) <= 1e-12
        assert np.linalg.norm(proj.apply(proj.kernel_dir)) <= 1e-12
        assert np.linalg.matrix_rank(proj.matrix) == 1


def test_projector_rejects_tangent_kernel():
    w = HyperplaneNormal(np.array([0.0, 1.0]))
    with pytest.raises(DegenerateSplitting):
        pj.projector_from_kernel(w, np.array([1.0, 0.0]))


def test_projector_judges_the_kernel_by_its_angle_not_its_length():
    w = HyperplaneNormal(np.array([0.0, 1.0]))
    for length in (1e-20, 1.0, 1e20):
        # 45 degrees off the plane at every length
        proj = pj.projector_from_kernel(w, length * np.array([1.0, 1.0]))
        assert np.allclose(proj.kernel_dir, [math.sqrt(0.5), math.sqrt(0.5)], rtol=0.0, atol=1e-15)
        assert np.allclose(proj.apply([3.0, 1.0]), [2.0, 0.0], rtol=0.0, atol=1e-15)
        # 1e-15 radians off the plane at every length
        with pytest.raises(DegenerateSplitting):
            pj.projector_from_kernel(w, length * np.array([1.0, 1e-15]))


def test_scaled_identity_projects_like_the_euclidean_norm():
    # the support point of Q = c I has Euclidean length c^(-1/2); beyond
    # c = 1e28 it once read as a kernel in the target plane
    w = HyperplaneNormal(np.array([1.0, 2.0]))
    xs = np.array([[3.0, 1.0], [-0.7, 0.4]])
    expect = xs - np.outer(xs @ w.w, w.w)
    for k in range(0, 301, 20):
        model = norms.inner_product(10.0**k * np.eye(2))
        for fn in (pj.project_hyperplane, pj.project_hyperplane_direct):
            got = fn(model, w, xs)
            assert np.max(np.abs(got - expect)) <= 1e-12, (k, fn.__name__)


# -- hyperplane projections ----------------------------------------------------

def test_project_euclidean_formula(rng):
    model = norms.euclidean()
    for _ in range(50):
        w = HyperplaneNormal(rng.standard_normal(2))
        x = rng.standard_normal(2)
        expect = x - np.dot(x, w.w) * w.w
        assert np.allclose(pj.project_hyperplane(model, w, x), expect, atol=1e-12)


def test_project_inner_product_example(rng):
    # minimizing (x1-q)^2 + 4 x2^2 over the x-axis gives q = x1
    model = norms.inner_product(np.diag([1.0, 4.0]))
    w = HyperplaneNormal(np.array([0.0, 1.0]))
    for _ in range(20):
        x = rng.standard_normal(2) * 3.0
        got = pj.project_hyperplane(model, w, x)
        assert np.allclose(got, [x[0], 0.0], atol=1e-10)


def test_project_lp_axis_symmetry():
    model = norms.lp(3.0)
    w = HyperplaneNormal(np.array([0.0, 1.0]))
    got = pj.project_hyperplane_direct(model, w, np.array([0.0, 2.0]))
    assert np.allclose(got, [0.0, 0.0], atol=1e-9)


def test_lemma_vs_direct_cross_validation(rng, ce_norm):
    models = [norms.euclidean(), norms.lp(1.5), norms.lp(3.0),
              norms.inner_product(np.diag([1.0, 4.0])), ce_norm]
    for model in models:
        worst = 0.0
        for _ in range(30):
            w = HyperplaneNormal.from_angle(rng.uniform(0.0, np.pi))
            x = rng.standard_normal(2) * 2.0
            a = pj.project_hyperplane(model, w, x)
            b = pj.project_hyperplane_direct(model, w, x)
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-7, f"{model.kind}: {worst:.2e}"


def test_kernel_direction_independent_of_x(rng, ce_norm):
    # Lemma-style consistency: direct minimization moves every point along
    # one fixed direction
    for model in [norms.lp(1.5), ce_norm]:
        w = HyperplaneNormal.from_angle(1.1)
        dirs = []
        for _ in range(50):
            x = rng.standard_normal(2) * 2.0
            d = x - pj.project_hyperplane_direct(model, w, x)
            if np.linalg.norm(d) > 1e-4:
                dirs.append(d / np.linalg.norm(d))
        ref = dirs[0]
        for d in dirs[1:]:
            assert abs(ref[0] * d[1] - ref[1] * d[0]) <= 1e-8


def test_direct_projection_keeps_on_plane_points(rng, ce_norm):
    # the direct route's line search passes through the zero vector here,
    # where the norm has a kink and no gradient
    models = [norms.lp(3.0), norms.lp(1.5), norms.inner_product(np.diag([1.0, 4.0])),
              norms.euclidean(), ce_norm]
    for model in models:
        on_axis = HyperplaneNormal(np.array([0.0, 1.0]))
        cases = [(on_axis, np.zeros(2)), (on_axis, np.array([3.0, 0.0]))]
        for _ in range(10):
            w = HyperplaneNormal(rng.standard_normal(2))
            x = rng.standard_normal(2) * 2.0
            cases += [(w, np.zeros(2)), (w, x - np.dot(x, w.w) * w.w)]
        for w, x in cases:
            got = pj.project_hyperplane_direct(model, w, x)
            assert np.max(np.abs(got - x)) <= 1e-12, f"{model.kind} at {x}"


def test_direct_projection_is_scale_free(ce_norm):
    # the line searches run at unit scale, so tiny and huge points project
    # like the linear route instead of collapsing to 0 or losing digits
    w = HyperplaneNormal(np.array([1.0, 2.0]))
    for model in (norms.euclidean(), norms.lp(3.0), ce_norm):
        for s in (1e-20, 1e20):
            x = np.array([s, s])
            lemma = pj.project_hyperplane(model, w, x)
            direct = pj.project_hyperplane_direct(model, w, x)
            assert np.max(np.abs(direct - lemma)) <= 1e-12 * np.max(np.abs(lemma)), (model.kind, s)


# -- families ---------------------------------------------------------------

def _norm_projector(norm, V):
    # the closest-point projection: kernel at V is the support point of V
    return pj.projector_from_kernel(V, norms.inverse_gauss(norm, V.w))


def test_associated_g_euclidean_identity():
    for ang in np.linspace(0.0, np.pi, 25, endpoint=False):
        v = HyperplaneNormal.from_angle(ang)
        assert np.allclose(pj.associated_g(_norm_projector(norms.euclidean(), v)).w, v.w, atol=1e-12)


def test_associated_g_counterexample(ce_norm):
    v = HyperplaneNormal(np.array([0.0, 1.0]))
    got = pj.associated_g(_norm_projector(ce_norm, v))
    support = norms.inverse_gauss(ce_norm, v.w)
    expect = norms.canonicalize_direction(support / np.linalg.norm(support))
    assert np.allclose(got.w, expect, atol=1e-10)


def test_angle_family_orthogonal_case(rng):
    projector_of = pj.angle_family(lambda a: np.pi / 2.0)
    for _ in range(20):
        v = HyperplaneNormal.from_angle(rng.uniform(0.0, np.pi))
        proj = projector_of(v)
        expect = np.eye(2) - np.outer(v.w, v.w)
        assert np.allclose(proj.matrix, expect, atol=1e-12)
        assert np.allclose(pj.associated_g(proj).w, v.w, atol=1e-12)


def test_angle_family_quarter_has_no_fixed_point():
    projector_of = pj.angle_family(lambda a: np.pi / 4.0)
    min_gap = np.inf
    for ang in np.pi * np.arange(720) / 720:
        v = HyperplaneNormal.from_angle(ang)
        g = pj.associated_g(projector_of(v))
        gap = abs(math.remainder(g.angle - v.angle, np.pi))
        min_gap = min(min_gap, gap)
    assert min_gap > 0.1  # constant alpha twists every line by pi/4


def test_angle_family_idempotent(rng):
    projector_of = pj.angle_family(lambda a: 0.4 + 0.2 * math.sin(a))
    for _ in range(100):
        v = HyperplaneNormal.from_angle(rng.uniform(0.0, np.pi))
        assert projector_of(v).idempotency_defect() <= 1e-12


def test_angle_family_degenerate():
    projector_of = pj.angle_family(lambda a: 0.0)
    with pytest.raises(DegenerateSplitting):
        projector_of(HyperplaneNormal.from_angle(0.3))


# -- inner-product conjugation ---------------------------------------------------

def test_conjugation_identity_matrix(rng):
    basis = rng.standard_normal((3, 2))
    x = rng.standard_normal(3)
    got = pj.conjugate_projection(np.eye(3), basis, x)
    q, _ = np.linalg.qr(basis)
    assert np.allclose(got, q @ (q.T @ x), atol=1e-12)


def test_conjugation_axis_example():
    got = pj.conjugate_projection(np.diag([1.0, 4.0]), np.array([1.0, 0.0]), np.array([3.0, 5.0]))
    assert np.allclose(got, [3.0, 0.0], atol=1e-12)


def test_conjugation_vs_direct_minimization(rng):
    for n in (2, 3):
        for m in (1, n - 1):
            for _ in range(10):
                a = rng.standard_normal((n, n))
                q = a @ a.T + 0.5 * np.eye(n)
                basis = rng.standard_normal((n, m))
                x = rng.standard_normal(n)
                got = pj.conjugate_projection(q, basis, x)
                coef = np.linalg.solve(basis.T @ q @ basis, basis.T @ q @ x)
                assert np.max(np.abs(got - basis @ coef)) <= 1e-9


def test_conjugation_vs_bounded_oracle(rng):
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        q = a @ a.T + 0.5 * np.eye(3)
        v = rng.standard_normal(3)
        x = rng.standard_normal(3)

        def cost(t):
            y = x - t * v
            return float(y @ q @ y)

        t_star = minimize_scalar(cost, bounds=(-20.0, 20.0), method="bounded",
                                 options={"xatol": 1e-12}).x
        got = pj.conjugate_projection(q, v, x)
        assert np.max(np.abs(got - t_star * v)) <= 1e-7


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_direct_projection_stack_equals_rows(rng, ce_norm):
    models = (norms.lp(1.5), norms.lp(3.0), norms.inner_product(np.diag([1.0, 4.0])), ce_norm)
    problems = []
    for model in models:
        w = HyperplaneNormal.from_angle(rng.uniform(0.0, np.pi))
        # random points, a point on the plane and the origin
        x = np.vstack([rng.standard_normal((30, 2)) * 2.0, 1.5 * w.line_direction(), [0.0, 0.0]])
        stacked = pj.project_hyperplane_direct(model, w, x)
        rows = [pj.project_hyperplane_direct(model, w, row) for row in x]
        assert np.array_equal(_bits(stacked), _bits(rows)), model.kind
        problems.append((model, w, x, stacked))
    # the four models in one stacked solve, and a single point among them
    problems.append((models[0], problems[0][1], np.array([0.3, -1.2]),
                     pj.project_hyperplane_direct(models[0], problems[0][1], [0.3, -1.2])))
    images = pj.project_hyperplanes_direct([(model, w, x) for model, w, x, _ in problems])
    for (model, _, _, alone), image in zip(problems, images):
        assert image.shape == alone.shape
        assert np.array_equal(_bits(image), _bits(alone)), model.kind


def test_project_line_lp_stack_equals_rows(rng):
    v = rng.standard_normal(3)
    for p in (2.0, 4.0):
        # random points and points on the line, where p = 4 has a triple root
        x = np.vstack([rng.standard_normal((30, 3)), 2.5 * v, -0.5 * v])
        stacked = pj.project_line_lp(p, v, x)
        rows = [pj.project_line_lp(p, v, row) for row in x]
        assert np.array_equal(_bits(stacked), _bits(rows)), p


# -- L^p lines -----------------------------------------------------------------

def test_project_line_lp_p2_closed_form(rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    for _ in range(20):
        x = rng.standard_normal(3)
        got = pj.project_line_lp(2.0, v, x)
        assert np.max(np.abs(got - np.dot(x, v) * v)) <= 1e-9


def test_project_line_lp_collinear(rng):
    v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    for p in (1.5, 3.0, 4.0):
        got = pj.project_line_lp(p, v, 2.0 * v)
        assert np.max(np.abs(got - 2.0 * v)) <= 1e-9


def test_linearity_defect_thresholds():
    v = np.ones(3) / math.sqrt(3.0)
    proj2 = lambda x: pj.project_line_lp(2.0, v, x)
    proj4 = lambda x: pj.project_line_lp(4.0, v, x)
    assert pj.linearity_defect(proj2, seed=0x5EED) <= 1e-9
    assert pj.linearity_defect(proj4, seed=0x5EED) > 1e-3


def test_linearity_defect_stacked_equals_three_calls():
    # the projector gets x + c y, x and y as one stack; the draws, the
    # images and the defect keep the bits of three separate calls
    v = np.ones(3) / math.sqrt(3.0)
    for p in (2.0, 4.0):
        for seed in (0x5EED, 7):
            project = lambda x: pj.project_line_lp(p, v, x)
            rng = np.random.default_rng(seed)
            draws = [(rng.standard_normal(3), rng.standard_normal(3), rng.uniform(-2.0, 2.0))
                     for _ in range(pj.LINEARITY_SAMPLES)]
            x, y, c = (np.array(col) for col in zip(*draws))
            lhs = project(x + c[:, None] * y)
            rhs = project(x) + c[:, None] * project(y)
            scale = 1.0 + np.linalg.norm(x, axis=-1) + np.abs(c) * np.linalg.norm(y, axis=-1)
            expect = float(np.max(np.linalg.norm(lhs - rhs, axis=-1) / scale))
            assert _bits(pj.linearity_defect(project, seed=seed)) == _bits(expect), (p, seed)


def test_linearity_defect_linear_projector(rng):
    # an oblique projection of R^3 onto the plane w-perp along u
    w = rng.standard_normal(3)
    u = rng.standard_normal(3) + 2.0 * w
    matrix = np.eye(3) - np.outer(u, w) / np.dot(u, w)
    defect = pj.linearity_defect(lambda x: x @ matrix.T, seed=1)
    assert defect <= 1e-12


def test_project_line_lp_rejects_bad_p():
    with pytest.raises(ValueError):
        pj.project_line_lp(1.0, np.ones(3), np.ones(3))


# -- intertwiner -------------------------------------------------------------

def test_intertwiner_identity_case(rng):
    f = rng.standard_normal((3, 4))
    h = pj.construct_intertwiner(f, f)
    xs = rng.standard_normal((50, 4))
    assert np.max(np.abs((xs @ f.T) @ h.T - xs @ f.T)) <= 1e-12


def test_intertwiner_equal_kernel_pair(rng):
    f = rng.standard_normal((2, 5))
    g = rng.standard_normal((3, 2)) @ f
    h = pj.construct_intertwiner(f, g)
    xs = rng.standard_normal((100, 5))
    assert np.max(np.abs((xs @ f.T) @ h.T - xs @ g.T)) <= 1e-12
    assert np.linalg.matrix_rank(h @ f) == np.linalg.matrix_rank(f)  # injective on range(f)


def test_intertwiner_angle_family_pair(rng):
    oblique = pj.angle_family(lambda a: np.pi / 4.0)(HyperplaneNormal.from_angle(0.9))
    orthogonal = pj.projector_from_kernel(pj.associated_g(oblique), oblique.kernel_dir)
    h = pj.construct_intertwiner(oblique.matrix, orthogonal.matrix)
    xs = rng.standard_normal((100, 2))
    assert np.max(np.abs(oblique.apply(xs) @ h.T - orthogonal.apply(xs))) <= 1e-12


def test_intertwiner_kernel_mismatch(rng):
    f = rng.standard_normal((2, 4))
    g = rng.standard_normal((2, 4))
    with pytest.raises(KernelMismatch):
        pj.construct_intertwiner(f, g)
