"""Closest-point projections onto hyperplanes and linear projection maps.

For a strictly convex C^1 norm the closest-point projection onto a
hyperplane w-perp is *linear*: every point is moved along the fixed
direction u = G^{-1}(w) (the support point of w) until it hits the plane.
``project_hyperplane`` implements that reduction, ``project_hyperplane_direct``
recomputes the same point by direct norm minimization and serves as the
independent cross-check.

Beyond norms, the angle family splits each line against a rotated copy of
itself; its associated map g sends V to the orthogonal complement of the
kernel, and the intertwiner of two linear maps with equal kernels realizes
the change of target plane explicitly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplitting, KernelMismatch
from . import norms
from .norms import HyperplaneNormal, canonicalize_direction, unit_vector
from .roots import brentq

# No longer a solver here; perfbench/job.py still counts calls to it by
# name, and the next change to the benchmark drops it from ``SOLVERS``.
quadratic_polish = None

LINEARITY_SAMPLES = 100  # (x, y, c) draws of linearity_defect
_KERNEL_TOL = 1e-10      # relative rank and kernel tolerance of construct_intertwiner


@dataclass(frozen=True)
class LinearProjector:
    """Linear projection along the unit vector ``kernel_dir``, by ``matrix``."""

    kernel_dir: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel_dir, dtype=float)
        m = np.asarray(self.matrix, dtype=float)
        k.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "kernel_dir", k)
        object.__setattr__(self, "matrix", m)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.matrix.T

    def idempotency_defect(self):
        return float(np.max(np.abs(self.matrix @ self.matrix - self.matrix)))


def projector_from_kernel(w, u):
    """The projector onto w-perp with kernel span(u): x - (<x,w>/<u,w>) u."""
    if not isinstance(w, HyperplaneNormal):
        w = HyperplaneNormal(w)
    u = np.asarray(u, dtype=float)
    denom = float(np.dot(u, w.w))
    if abs(denom) < 1e-14:
        raise DegenerateSplitting("kernel direction lies in the target plane")
    if denom < 0:
        u = -u
        denom = -denom
    matrix = np.eye(2) - np.outer(u, w.w) / denom
    return LinearProjector(kernel_dir=u / np.linalg.norm(u), matrix=matrix)


def project_hyperplane(norm, w, x):
    """Closest point of w-perp to ``x`` in the given norm (linear route).

    The projection direction is the support point u = G^{-1}(w); the result
    is x - (<x,w>/<u,w>) u, which lies on w-perp and is independent of x in
    its direction of travel.
    """
    if not isinstance(w, HyperplaneNormal):
        w = HyperplaneNormal(w)
    u = norms.inverse_gauss(norm, w.w)
    return projector_from_kernel(w, u).apply(norms._planar(x))


def _line_min(norm, x, direction, lo, hi):
    """Minimize s -> ||x - s*direction|| on [lo, hi] for each row of ``x``.

    ``x`` is an (N, 2) stack with brackets ``lo`` and ``hi`` of length N.
    The objective is convex, so its minimizer is the root of the analytic
    slope -<grad ||.||, direction>, one stacked root solve for all rows.
    The slope is taken as 0 where x - s*direction is the zero vector (the
    kink at the minimum), and a slope of one sign across the bracket puts
    the minimizer at the end it points to.
    """

    def slope(s, x):
        y = x - s[:, None] * direction
        out = np.zeros(len(y))
        live = np.any(y != 0.0, axis=1)
        out[live] = -np.sum(norms.norm_gradient(norm, y[live]) * direction, axis=-1)
        return out

    at_lo = slope(lo, x) >= 0.0
    at_hi = slope(hi, x) <= 0.0
    s = np.where(at_lo, lo, hi)
    solve = ~at_lo & ~at_hi
    s[solve] = brentq(slope, lo[solve], hi[solve], args=(x[solve],), xtol=1e-13)
    return s


def project_hyperplane_direct(norm, w, x):
    """Closest point of w-perp by direct norm minimization (oracle route).

    ``x`` is a point or an (N, 2) stack of points whose line minimizations
    along w-perp run as one stacked solve; each row equals the projection
    of that point alone.  Every nonzero row is first divided by its largest
    |coordinate|, and its projection scaled back, since P(s x) = s P(x):
    the line searches then run at unit scale, where their absolute brackets
    and tolerances fit.
    """
    if not isinstance(w, HyperplaneNormal):
        w = HyperplaneNormal(w)
    x = norms._planar(x)
    rows = x.reshape(-1, 2)
    scale = np.max(np.abs(rows), axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    rows = rows / scale
    v = w.line_direction()
    lo_r, hi_r = norms.sphere_radius_bounds(norm)
    span = (1.0 + hi_r / lo_r) * (np.linalg.norm(rows, axis=-1) + 1.0)
    center = np.sum(rows * v, axis=-1)
    s_star = _line_min(norm, rows, v, center - span, center + span)
    return (s_star[:, None] * v * scale).reshape(x.shape)


# ---------------------------------------------------------------------------
# the angle family of linear projections
# ---------------------------------------------------------------------------

def associated_g(projector):
    """The hyperplane orthogonal to the projector's kernel, canonicalized."""
    u = projector.kernel_dir
    return HyperplaneNormal(canonicalize_direction(u / np.linalg.norm(u)))


def angle_family(alpha):
    """Planar family splitting each line L against L rotated by alpha(L).

    Returns the map from a HyperplaneNormal V to the LinearProjector onto
    L = V-perp.  ``alpha`` maps the line angle in [0, pi) to an angle in
    (0, pi); the projection onto L kills the rotated line.  The associated
    map V -> associated_g(projector_of(V)) has a fixed point exactly where
    alpha(L) = pi/2.
    """

    def projector_of(V):
        line_angle = float(np.mod(V.angle + 0.5 * np.pi, np.pi))
        a = float(alpha(line_angle))
        if not 0.0 < a < np.pi:
            raise DegenerateSplitting(f"alpha must lie in (0, pi), got {a}")
        kernel = unit_vector(line_angle + a)
        return projector_from_kernel(V, kernel)

    return projector_of


# ---------------------------------------------------------------------------
# inner-product conjugation and L^p lines (general codimension specials)
# ---------------------------------------------------------------------------

def conjugate_projection(Q, basis, x):
    """Closest-point projection onto span(basis) for the Q-inner-product norm.

    Conjugates the Euclidean orthogonal projection by the isometry
    Psi = Q^(1/2): the result is Psi^-1 P_eucl(Psi V) Psi x.  ``basis`` is an
    (n, m) matrix whose columns span the target subspace.
    """
    model = norms.inner_product(Q)
    sqrt_q, _, inv_sqrt_q = norms._q_matrices(model)
    basis = np.asarray(basis, dtype=float)
    if basis.ndim == 1:
        basis = basis[:, None]
    mapped = sqrt_q @ basis
    ortho, _ = np.linalg.qr(mapped)
    proj_eucl = ortho @ ortho.T
    return inv_sqrt_q @ (proj_eucl @ (sqrt_q @ np.asarray(x, dtype=float)))


def project_line_lp(p, v, x):
    """Closest point of the line span(v) to ``x`` in the L^p norm.

    The minimizer t of ||x - t v||_p is the root of the increasing slope
    -sum v_i sgn(r_i) |r_i|^(p-1), r = x - t v; for p != 2 in dimension
    >= 3 this map is genuinely nonlinear in x.  ``x`` is a point or an
    (N, n) stack of points, solved as one stacked root solve; each row
    equals the projection of that point alone.
    """
    p = float(p)
    if not (1.0 < p < np.inf):
        raise ValueError("p must lie in (1, inf)")
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    x = np.asarray(x, dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    bound = (rows.shape[1] + 1.0) * np.linalg.norm(rows, axis=-1) + 1.0

    def slope(t, x):
        r = x - t[:, None] * v
        return -np.sum(np.sign(r) * np.abs(r) ** (p - 1.0) * v, axis=-1)

    # for x on the line and p > 2 the root has multiplicity p - 1, where
    # brentq needs up to ~150 steps
    t = brentq(slope, -bound, bound, args=(rows,), xtol=1e-14, maxiter=500)
    return (t[:, None] * v).reshape(x.shape)


def linearity_defect(projector, seed=0x5EED):
    """Worst scale-free additivity violation of a projection map.

    Samples ``LINEARITY_SAMPLES`` triples (x, y, c) and measures |P(x + c y) - P(x) - c P(y)| divided by
    1 + |x| + |c||y|; a linear map scores ~0, a genuinely nonlinear closest-
    point map scores well above any floating tolerance.  ``projector`` maps
    an (N, 3) stack of points to their images; the three stacks x + c y,
    x and y are each one call.
    """
    rng = np.random.default_rng(seed)
    draws = [(rng.standard_normal(3), rng.standard_normal(3), rng.uniform(-2.0, 2.0))
             for _ in range(LINEARITY_SAMPLES)]
    x, y, c = (np.array(col) for col in zip(*draws))
    lhs = projector(x + c[:, None] * y)
    rhs = projector(x) + c[:, None] * projector(y)
    scale = 1.0 + np.linalg.norm(x, axis=-1) + np.abs(c) * np.linalg.norm(y, axis=-1)
    return float(np.max(np.linalg.norm(lhs - rhs, axis=-1) / scale))


# ---------------------------------------------------------------------------
# intertwiner of equal-kernel linear maps
# ---------------------------------------------------------------------------

def _row_space_and_kernel(a):
    """Orthonormal bases, as columns, of the row space and the kernel of
    ``a`` from one SVD, and the scale max(max s, 1) of its singular values
    s; those up to ``_KERNEL_TOL`` times that scale count as zero."""
    _, s, vt = np.linalg.svd(a)
    scale = max(float(np.amax(s, initial=0.0)), 1.0)
    rank = int(np.sum(s > _KERNEL_TOL * scale))
    return vt[:rank].T, vt[rank:].T, scale


def construct_intertwiner(f, g):
    """The matrix h with h o f = g, for two linear maps sharing a kernel.

    ``f`` and ``g`` are matrices with the same column count; h maps
    range(f) onto range(g), so a stack y of f-images goes to ``y @ h.T``.
    Kernel equality is verified by mutual containment of the kernel bases;
    on mismatch the construction refuses with KernelMismatch.  Ranks and
    containment are judged relative to ``_KERNEL_TOL``.  h is assembled on
    a basis of the common row space: h(f w_j) = g w_j.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape[1] != g.shape[1]:
        raise KernelMismatch("maps must share a domain")
    w_basis, nf, scale_f = _row_space_and_kernel(f)
    _, ng, scale_g = _row_space_and_kernel(g)
    if nf.shape[1] != ng.shape[1]:
        raise KernelMismatch("kernel dimensions differ")
    if nf.size and float(np.max(np.abs(g @ nf))) > _KERNEL_TOL * scale_g:
        raise KernelMismatch("ker f is not contained in ker g")
    if ng.size and float(np.max(np.abs(f @ ng))) > _KERNEL_TOL * scale_f:
        raise KernelMismatch("ker g is not contained in ker f")
    # f is injective on its row space, so f w_basis has full column rank
    return (g @ w_basis) @ np.linalg.pinv(f @ w_basis)
