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

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplitting, KernelMismatch
from . import norms
from .norms import HyperplaneNormal, unit_vector
from .roots import MAXITER, brentq

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
    """The projector onto w-perp with kernel span(u): x - (<x,w>/<u,w>) u.

    ``w`` is a HyperplaneNormal.  The kernel is refused as lying in the
    target plane by the angle of u, |<u/|u|, w>| < 1e-14, not by its length:
    a support point of Q = c I has length c^(-1/2).
    """
    u = np.asarray(u, dtype=float)
    kernel_dir = norms._unit(u)
    if abs(float(np.dot(kernel_dir, w.w))) < 1e-14:
        raise DegenerateSplitting("kernel direction lies in the target plane")
    denom = float(np.dot(u, w.w))
    if denom < 0:
        u, denom, kernel_dir = -u, -denom, -kernel_dir
    matrix = np.eye(2) - np.outer(u, w.w) / denom
    return LinearProjector(kernel_dir=kernel_dir, matrix=matrix)


def project_hyperplane(norm, w, x):
    """Closest point of w-perp to ``x`` in the given norm (linear route).

    ``w`` is a HyperplaneNormal.  The projection direction is the support
    point u = G^{-1}(w); the result is x - (<x,w>/<u,w>) u, which lies on
    w-perp and is independent of x in its direction of travel.
    """
    u = norms.inverse_gauss(norm, w.w)
    return projector_from_kernel(w, u).apply(norms._planar(x))


def _convex_min(slope, lo, hi, args, xtol, maxiter=MAXITER):
    """Minimizers on the brackets [lo, hi] of convex functions of one
    variable, one per lane, given their nondecreasing ``slope(s, *args)``.

    A lane whose slope keeps one sign across its bracket takes the end the
    slope points to; all other lanes go through one stacked root solve of
    the slope, with the rows of each array in ``args`` for those lanes.
    """
    at_lo = slope(lo, *args) >= 0.0
    at_hi = slope(hi, *args) <= 0.0
    s = np.where(at_lo, lo, hi)
    solve = ~at_lo & ~at_hi
    s[solve] = brentq(slope, lo[solve], hi[solve], args=tuple(a[solve] for a in args),
                      xtol=xtol, maxiter=maxiter)
    return s


def project_hyperplanes_direct(problems):
    """Closest points by direct norm minimization for several problems at once.

    ``problems`` is a sequence of ``(norm, w, x)``, w a HyperplaneNormal;
    returns the list of their ``project_hyperplane_direct`` images, bit for
    bit, from one stacked line minimization over the rows of every problem.
    Row i minimizes the convex s -> ||x_i - s*v_i|| in the norm of its own
    problem, through the analytic slope -<grad ||.||, v_i>, where each
    problem's gradient is evaluated on its own rows; the slope is taken as 0
    where x_i - s*v_i is the zero vector (the kink at the minimum).
    """
    shapes, rows, directions, scales, lo, hi = [], [], [], [], [], []
    models = [norm for norm, _, _ in problems]
    for norm, w, x in problems:
        x = norms._planar(x)
        shapes.append(x.shape)
        r = x.reshape(-1, 2)
        scale = np.max(np.abs(r), axis=-1, keepdims=True)
        scale[scale == 0.0] = 1.0
        r = r / scale
        v = w.line_direction()
        lo_r, hi_r = norms.sphere_radius_bounds(norm)
        span = (1.0 + hi_r / lo_r) * (np.linalg.norm(r, axis=-1) + 1.0)
        center = np.sum(r * v, axis=-1)
        rows.append(r)
        directions.append(np.broadcast_to(v, r.shape))
        scales.append(scale)
        lo.append(center - span)
        hi.append(center + span)
    sizes = [len(r) for r in rows]
    group = np.repeat(np.arange(len(problems)), sizes)
    direction = np.concatenate(directions)

    def slope(s, x, direction, group):
        y = x - s[:, None] * direction
        out = np.zeros(len(y))
        live = np.any(y != 0.0, axis=1)
        for k, model in enumerate(models):
            own = live & (group == k)
            if own.any():
                out[own] = -np.sum(norms.norm_gradient(model, y[own]) * direction[own], axis=-1)
        return out

    s_star = _convex_min(slope, np.concatenate(lo), np.concatenate(hi),
                         (np.concatenate(rows), direction, group), xtol=1e-13)
    images = s_star[:, None] * direction * np.concatenate(scales)
    return [image.reshape(shape)
            for image, shape in zip(np.split(images, np.cumsum(sizes)[:-1]), shapes)]


def project_hyperplane_direct(norm, w, x):
    """Closest point of w-perp by direct norm minimization (oracle route).

    ``w`` is a HyperplaneNormal, and ``x`` is a point or an (N, 2) stack of
    points whose line minimizations along w-perp run as one stacked solve;
    each row equals the projection of that point alone.  Every nonzero row
    is first divided by its largest |coordinate|, and its projection scaled
    back, since P(s x) = s P(x): the line searches then run at unit scale,
    where their absolute brackets and tolerances fit.
    """
    return project_hyperplanes_direct([(norm, w, x)])[0]


# ---------------------------------------------------------------------------
# the angle family of linear projections
# ---------------------------------------------------------------------------

def associated_g(projector):
    """The hyperplane orthogonal to the projector's kernel, canonicalized."""
    return HyperplaneNormal(projector.kernel_dir)


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
    (n, m) matrix whose columns span the target subspace, one column for a line.
    """
    model = norms.inner_product(Q)
    sqrt_q, _, inv_sqrt_q = norms._q_matrices(model)
    mapped = sqrt_q @ np.asarray(basis, dtype=float)
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
    t = _convex_min(slope, -bound, bound, (rows,), xtol=1e-14, maxiter=500)
    return (t[:, None] * v).reshape(x.shape)


def normals(rng, *shape):
    """An array of the given shape of standard normal draws from the
    ``random.Random`` stream ``rng``, filled in row-major order."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)


def linearity_defect(projector, seed=0x5EED):
    """Worst scale-free additivity violation of a projection map.

    Samples ``LINEARITY_SAMPLES`` triples (x, y, c) from ``random.Random(seed)``
    and measures |P(x + c y) - P(x) - c P(y)| divided by
    1 + |x| + |c||y|; a linear map scores ~0, a genuinely nonlinear closest-
    point map scores well above any floating tolerance.  ``projector`` maps
    an (N, 3) stack of points to their images, each row as if alone; the
    three stacks x + c y, x and y go to it as one (3N, 3) stack.
    """
    rng = random.Random(seed)
    draws = np.array([[rng.gauss(0.0, 1.0) for _ in range(6)] + [rng.uniform(-2.0, 2.0)]
                      for _ in range(LINEARITY_SAMPLES)])
    x, y, c = draws[:, 0:3], draws[:, 3:6], draws[:, 6]
    lhs, px, py = np.split(projector(np.concatenate([x + c[:, None] * y, x, y])), 3)
    rhs = px + c[:, None] * py
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
