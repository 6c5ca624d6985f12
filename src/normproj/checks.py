"""Cross-cutting verification suite binding the core guarantees together.

Each check exercises one structural fact the rest of the package depends
on -- intertwiners transport images faithfully, closest-point projections
are linear with x-independent kernels, covering comparisons control bin
counts, the staircase norm's Gauss map blows a thin direction set up to
positive measure -- and reduces it to a single worst defect against a
declared tolerance.  Failures are reported, never raised: a check that
raises a package error is reported as failed with an infinite defect, so a
broken configuration surfaces as a red report line rather than a stack
trace.

Sample sizes are fixed (100 algebraic samples, 1024-point Gauss sweeps,
one level-10 staircase norm shared by the checks) to keep the suite fast
while staying far above measured noise.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import boxdim, cantor, fractals, norms, projections, sweep
from .errors import NormProjError

# regression locks, frozen from the first certified run of the gap-sum oracle
P2_LOWER_LEVEL10 = 0.126014145067989
P2_REGRESSION_TOL = 1e-9

@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check; passed iff worst_defect <= tolerance."""

    name: str
    passed: bool
    worst_defect: float
    tolerance: float
    samples: int
    seed: int


def _report(name, worst, tol, samples, seed):
    return CheckReport(
        name=name,
        passed=bool(worst <= tol),
        worst_defect=float(worst),
        tolerance=float(tol),
        samples=int(samples),
        seed=int(seed),
    )


# the default staircase norm is immutable; build it once per process
_DEFAULT_BUILD = {}


def _shared_norm():
    """The level-10 triadic staircase norm; it carries its K and curve."""
    if "ce" not in _DEFAULT_BUILD:
        _DEFAULT_BUILD["ce"] = cantor.build_norm(cantor.curve_samples(cantor.CantorSet(), 10))
    return _DEFAULT_BUILD["ce"]


def _check_intertwiner(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    samples = 100
    for _ in range(10):
        f = rng.standard_normal((2, 4))
        g = rng.standard_normal((3, 2)) @ f  # same kernel by construction
        h = projections.construct_intertwiner(f, g)
        xs = rng.standard_normal((samples, 4))
        worst = max(worst, float(np.max(np.abs((xs @ f.T) @ h.T - xs @ g.T))))
    return _report("intertwiner_transport", worst, 1e-12, samples, seed)


def _check_equal_kernel_boxdim(seed):
    cloud = fractals.cantor_product(1.0 / 3.0, 8)
    projector_of = projections.angle_family(lambda a: np.pi / 3.0)
    proj_f = projector_of(norms.HyperplaneNormal.from_angle(2.0))
    proj_g = projections.projector_from_kernel(projections.associated_g(proj_f), proj_f.kernel_dir)
    scales = [3.0**-k for k in range(2, 8)]
    est = [boxdim.fit_loglog(scales, boxdim.projector_counts(proj, cloud, scales)).slope
           for proj in (proj_f, proj_g)]
    return _report("equal_kernel_boxdim", abs(est[0] - est[1]), 0.05, len(scales), seed)


def _check_linear_families(seed):
    rng = np.random.default_rng(seed)
    ce = _shared_norm()
    models = [norms.lp(1.5), norms.lp(3.0), norms.inner_product(np.diag([1.0, 4.0])), ce]
    worst = 0.0
    for model in models:
        w = norms.HyperplaneNormal.from_angle(rng.uniform(0.0, np.pi))
        proj = projections.projector_from_kernel(w, norms.inverse_gauss(model, w.w))
        worst = max(worst, proj.idempotency_defect())
        x = rng.standard_normal((50, 2)) * 2.0
        dirs = [d / np.linalg.norm(d) for d in x - projections.project_hyperplane_direct(model, w, x)
                if np.linalg.norm(d) > 1e-4]
        for d in dirs[1:]:
            worst = max(worst, abs(dirs[0][0] * d[1] - dirs[0][1] * d[0]))
    return _report("linear_projection_families", worst, 1e-8, 50 * len(models), seed)


def _check_covering_counts(seed):
    # psi = f * (1/(4(1-F))) satisfies |psi(s)-psi(s')| <= (1/2)|f(s)-f(s')|,
    # so occupied-bin counts of psi-images never exceed f-image counts at
    # delta/(2M) = delta.  Violations count as defects.
    curve = _shared_norm().curve
    m_const = 0.5
    f_img = curve.f[:, None]
    psi_img = curve.psi[:, None]
    res = float(np.min(np.diff(curve.f))) / 4.0
    f_cloud = fractals.PointCloud(points=f_img, generation=curve.level, resolution=res, label="f")
    p_cloud = fractals.PointCloud(points=psi_img, generation=curve.level, resolution=res, label="psi")
    bad = 0
    scales = [2.0**-k for k in range(3, 9)]
    for delta in scales:
        n_beta = boxdim.box_count(p_cloud, delta)
        n_alpha = boxdim.box_count(f_cloud, delta / (2.0 * m_const))
        if n_beta > n_alpha:
            bad += 1
    return _report("covering_count_comparison", float(bad), 0.0, len(scales), seed)


def _check_monotone_product(seed):
    # h = f*g for a positive increasing factor g: on every level interval
    # inside [1/4, 1] the h-increment must dominate g(1/4) * f-increment.
    # The curve's non-gap grid points are the level-interval endpoints in
    # order, each f there converted once from its exact value.
    curve = _shared_norm().curve
    ends = ~curve.is_gap_mid
    a, b = curve.t[ends][0::2], curve.t[ends][1::2]
    fa, fb = curve.f[ends][0::2], curve.f[ends][1::2]
    g_factor = lambda t: 1.0 + t * t
    floor = g_factor(0.25)
    inside = a >= 0.25
    shortfall = floor * (fb - fa) - (fb * g_factor(b) - fa * g_factor(a))
    worst = max(0.0, *shortfall[inside].tolist())
    return _report("monotone_product_measure", worst, 0.0, int(np.sum(inside)), seed)


def _check_gauss_homeo(seed):
    ce = _shared_norm()
    models = [norms.lp(1.5), norms.lp(3.0), norms.lp(8.0),
              norms.inner_product(np.diag([1.0, 4.0])), ce]
    worst = 0.0
    for model in models:
        rep = norms.check_gauss_properties(model, 1024)
        worst = max(worst, rep.antipodality_defect)
        if not rep.monotone or rep.min_inner <= 0.0:
            worst = max(worst, 1.0)
    return _report("gauss_homeomorphism", worst, 1e-12, 1024 * len(models), seed)


def _check_fixed_points(seed):
    ce = _shared_norm()
    models = [norms.inner_product(np.diag([1.0, 4.0])), norms.lp(4.0), ce]
    worst = 0.0
    for model in models:
        far, near = norms.find_gauss_fixed_points(model)
        worst = max(worst, norms.gauss_fixed_point_defect(model, far))
        worst = max(worst, norms.gauss_fixed_point_defect(model, near))
    return _report("gauss_fixed_points", worst, 1e-6, 2 * len(models), seed)


def _check_table_validity(seed):
    # defects are normalized by their individual tolerances, so the report's
    # single threshold is 1.0
    table = _shared_norm().support
    worst = max(
        table.antipodal_defect() / norms.ANTIPODAL_TABLE_TOL,
        table.joint_tangent_mismatch() / norms.JOINT_TANGENT_TOL,
        0.0 if table.convexity_slack() > 0.0 else 2.0,
    )
    return _report("support_table_validity", worst, 1.0, 1, seed)


def _check_conjugation(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    trials = 0
    for n in (2, 3):
        for m in (1, n - 1):
            for _ in range(10):
                a = rng.standard_normal((n, n))
                q = a @ a.T + 0.5 * np.eye(n)
                basis = rng.standard_normal((n, m))
                x = rng.standard_normal(n)
                got = projections.conjugate_projection(q, basis, x)
                coef = np.linalg.solve(basis.T @ q @ basis, basis.T @ q @ x)
                worst = max(worst, float(np.max(np.abs(got - basis @ coef))))
                trials += 1
    return _report("inner_product_conjugation", worst, 1e-9, trials, seed)


def _check_lp_linear(seed):
    v = np.ones(3) / np.sqrt(3.0)
    d2 = projections.linearity_defect(lambda x: projections.project_line_lp(2.0, v, x), seed=seed)
    return _report("lp_line_linearity_p2", d2, 1e-9, projections.LINEARITY_SAMPLES, seed)


def _check_lp_nonlinear(seed):
    v = np.ones(3) / np.sqrt(3.0)
    d4 = projections.linearity_defect(lambda x: projections.project_line_lp(4.0, v, x), seed=seed)
    # the check demands d4 > 1e-3; report the shortfall so passed <=> 0
    shortfall = max(0.0, 1e-3 - d4)
    return _report("lp_line_nonlinearity_p4", shortfall, 0.0, projections.LINEARITY_SAMPLES, seed)


def _check_pushforward(seed):
    ce = _shared_norm()
    K = ce.curve.K
    lower, upper = sweep.gauss_pushforward_measure(ce, K, 10)
    defect = abs(lower - P2_LOWER_LEVEL10)  # regression lock on the gap sum
    if not (0.0 < lower <= upper):
        defect = max(defect, 1.0)
    e_lo, e_hi = sweep.gauss_pushforward_measure(norms.euclidean(), K, 10)
    if not (e_lo == 0.0 and e_hi < 0.02):  # identity map squeezes K to null
        defect = max(defect, 1.0)
    return _report("staircase_pushforward_positive", defect, P2_REGRESSION_TOL, 2, seed)


_CHECK_FUNCS = {
    "intertwiner_transport": _check_intertwiner,
    "equal_kernel_boxdim": _check_equal_kernel_boxdim,
    "linear_projection_families": _check_linear_families,
    "covering_count_comparison": _check_covering_counts,
    "monotone_product_measure": _check_monotone_product,
    "gauss_homeomorphism": _check_gauss_homeo,
    "gauss_fixed_points": _check_fixed_points,
    "support_table_validity": _check_table_validity,
    "inner_product_conjugation": _check_conjugation,
    "lp_line_linearity_p2": _check_lp_linear,
    "lp_line_nonlinearity_p4": _check_lp_nonlinear,
    "staircase_pushforward_positive": _check_pushforward,
}
CHECK_NAMES = tuple(_CHECK_FUNCS)


def run_all(seed=0):
    """Run every check; deterministic for a fixed seed."""
    reports = []
    for index, name in enumerate(CHECK_NAMES):
        check_seed = seed + index
        try:
            reports.append(_CHECK_FUNCS[name](check_seed))
        except NormProjError:
            reports.append(_report(name, math.inf, 0.0, 0, check_seed))
    return reports
