"""Strictly convex norm models, their Gauss maps and support points.

A norm model is one of four concrete kinds:

* ``euclidean``      -- the standard norm |x|,
* ``lp``             -- (sum |x_i|^p)^(1/p) with p in (1, inf),
* ``inner_product``  -- sqrt(x' Q x) for a symmetric positive-definite Q,
* ``support_table``  -- a planar norm tabulated by the support function of
                        its unit ball on a uniform angle grid.

All models are antipodally symmetric and strictly convex, so the unit sphere
has a unique outward Euclidean unit normal at every point (the Gauss map G)
and G is invertible: the preimage of a direction w is the point of the unit
sphere where <x, w> is maximal (the support point).  Non-strictly-convex
parameters (p = 1 or infinity, singular Q, a table failing its convexity
check) are rejected at construction time, never at use.

Everything here is pure and the model objects are treated as immutable; the
only mutation is an internal memo cache of derived matrices/splines.  A
table built by ``cantor.build_norm`` also carries, in ``NormModel.curve``, the
sampled staircase arc it was assembled from; every other model has ``None``.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

from .errors import ModelNotReady, NotSmoothHere, NotStrictlyConvex
from .searches import golden_section_max

ANTIPODAL_TABLE_TOL = 1e-10  # h(phi+pi) = h(phi) for stored tables
JOINT_TANGENT_TOL = 1e-6     # C^1 mismatch allowed at glue joints
_ZERO_COORD_TOL = 1e-12      # "first nonzero coordinate" cutoff


def unit_vector(angle):
    """Unit vector (cos a, sin a); vectorized over ``angle``."""
    angle = np.asarray(angle, dtype=float)
    return np.stack([np.cos(angle), np.sin(angle)], axis=-1)


def rot90(v):
    """Counterclockwise rotation of a planar vector (or stack) by pi/2."""
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def canonicalize_direction(w):
    """Flip ``w`` so its first coordinate of magnitude > 1e-12 is positive."""
    w = np.asarray(w, dtype=float)
    for c in w:
        if abs(c) > _ZERO_COORD_TOL:
            return w if c > 0 else -w
    return w


def polar_angle(v):
    """Angle of a planar vector in [0, 2*pi)."""
    a = float(np.arctan2(v[1], v[0]))
    return a + 2.0 * np.pi if a < 0 else a


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere of some norm model."""

    coords: np.ndarray
    polar_angle: float | None = None  # set for planar models

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True)
class HyperplaneNormal:
    """Euclidean unit normal of a hyperplane, canonical up to antipodes.

    The stored vector has unit length and its first coordinate of magnitude
    above 1e-12 is positive, so equal hyperplanes yield equal vectors.
    """

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        n = np.linalg.norm(w)
        if n == 0:
            raise ValueError("zero vector cannot define a hyperplane")
        w = canonicalize_direction(w / n)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @classmethod
    def from_angle(cls, theta):
        return cls(unit_vector(theta))

    @property
    def dim(self):
        return self.w.shape[0]

    @property
    def angle(self):
        """Representative angle in [0, pi) (planar only)."""
        return float(np.mod(np.arctan2(self.w[1], self.w[0]), np.pi))

    def line_direction(self):
        """Canonical unit vector spanning w-perp (planar only)."""
        return canonicalize_direction(rot90(self.w))


@dataclass
class SupportTable:
    """Support function of a planar convex body on a uniform angle grid.

    ``phi`` are the grid angles on [0, 2*pi), ``h`` the support values,
    ``dh`` the angular derivatives.  ``provenance`` marks, per row, whether
    the value comes from the constructed boundary arc or from a closing
    (glue) arc: one of {"gamma", "glue", "gamma_opp", "glue_opp"}.
    ``joints`` records (angle, incoming dh, outgoing dh) at each junction
    between arcs, filled in by the builder.
    """

    phi: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    provenance: np.ndarray | None = None
    joints: tuple = ()
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        self.dh = np.asarray(self.dh, dtype=float)
        if self.provenance is None:
            self.provenance = np.full(self.phi.shape, "gamma", dtype=object)
        n = len(self.phi)
        if n % 2 != 0:
            raise ValueError("table size must be even (antipodal pairing)")
        if not (len(self.h) == len(self.dh) == n):
            raise ValueError("phi, h, dh must have equal length")
        for arr in (self.phi, self.h, self.dh):
            arr.flags.writeable = False

    # -- interpolation ----------------------------------------------------

    def _spline(self):
        if "spline" not in self._memo:
            phi = np.append(self.phi, 2.0 * np.pi)
            h = np.append(self.h, self.h[0])
            dh = np.append(self.dh, self.dh[0])
            sp = CubicHermiteSpline(phi, h, dh)
            self._memo["spline"] = (sp, sp.derivative())
        return self._memo["spline"]

    def support(self, angle):
        sp, _ = self._spline()
        return sp(np.mod(angle, 2.0 * np.pi))

    def support_deriv(self, angle):
        _, dsp = self._spline()
        return dsp(np.mod(angle, 2.0 * np.pi))

    def boundary_point(self, angle):
        """Boundary point with outward normal at ``angle``: h*u + h'*u_perp."""
        u = unit_vector(angle)
        up = rot90(u)
        h = self.support(angle)
        dh = self.support_deriv(angle)
        return (np.asarray(h)[..., None] * u) + (np.asarray(dh)[..., None] * up)

    # -- diagnostics -------------------------------------------------------

    def antipodal_defect(self):
        half = len(self.phi) // 2
        dh_half = np.roll(self.h, -half) - self.h
        dd_half = np.roll(self.dh, -half) - self.dh
        return float(max(np.max(np.abs(dh_half)), np.max(np.abs(dd_half))))

    def convexity_slack(self):
        """Min over the grid of h + h'' (second differences); > 0 is convex."""
        step = self.phi[1] - self.phi[0]
        second = (np.roll(self.h, -1) - 2.0 * self.h + np.roll(self.h, 1)) / step**2
        return float(np.min(self.h + second))

    def joint_tangent_mismatch(self):
        if not self.joints:
            return 0.0
        return float(max(abs(a - b) for _, a, b in self.joints))

    def validate(self):
        """Raise NotStrictlyConvex unless the table describes a valid norm."""
        if np.min(self.h) <= 0.0:
            raise NotStrictlyConvex("support values must be positive")
        if self.antipodal_defect() > ANTIPODAL_TABLE_TOL:
            raise NotStrictlyConvex(
                f"table not antipodally symmetric (defect {self.antipodal_defect():.3e})"
            )
        slack = self.convexity_slack()
        if slack <= 0:
            raise NotStrictlyConvex(f"table fails h + h'' > 0 (min slack {slack:.3e})")
        if self.joint_tangent_mismatch() > JOINT_TANGENT_TOL:
            raise NotStrictlyConvex(
                f"glue joints not C^1 (mismatch {self.joint_tangent_mismatch():.3e})"
            )

    # -- persistence -------------------------------------------------------

    def to_csv(self, path, version_line=None):
        with open(path, "w", encoding="utf-8") as fh:
            if version_line:
                fh.write(version_line + "\n")
            fh.write("phi,h,dh\n")
            for p, h, dh in zip(self.phi, self.h, self.dh):
                fh.write(f"{p + 0.0:.12g},{h + 0.0:.12g},{dh + 0.0:.12g}\n")

    @classmethod
    def from_csv(cls, path):
        rows = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("phi"):
                    continue
                rows.append([float(v) for v in line.split(",")])
        data = np.asarray(rows, dtype=float)
        return cls(phi=data[:, 0], h=data[:, 1], dh=data[:, 2])


@dataclass
class NormModel:
    """A strictly convex norm given by kind plus parameters."""

    kind: str
    dim: int
    p: float | None = None
    Q: np.ndarray | None = None
    support: SupportTable | None = None
    curve: object = field(default=None, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)


def euclidean(dim=2):
    return NormModel(kind="euclidean", dim=dim)


def lp(p, dim=2):
    p = float(p)
    if not (1.0 < p < np.inf):
        raise NotStrictlyConvex(f"lp norm requires p in (1, inf), got {p}")
    return NormModel(kind="lp", dim=dim, p=p)


def inner_product(Q):
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise NotStrictlyConvex("Q must be a square matrix")
    if np.max(np.abs(Q - Q.T)) > 1e-12 * max(1.0, np.max(np.abs(Q))):
        raise NotStrictlyConvex("Q must be symmetric")
    eig = np.linalg.eigvalsh(Q)
    if eig[0] <= 1e-12 * max(1.0, eig[-1]):
        raise NotStrictlyConvex("Q must be positive-definite")
    Q = 0.5 * (Q + Q.T)
    Q.flags.writeable = False
    return NormModel(kind="inner_product", dim=Q.shape[0], Q=Q)


def from_support_table(table):
    """Planar norm from a support table; the table is validated first."""
    table.validate()
    return NormModel(kind="support_table", dim=2, support=table)


def _q_matrices(norm):
    if "q" not in norm._memo:
        evals, vecs = np.linalg.eigh(norm.Q)
        evals = np.maximum(evals, 1e-12)
        sqrt_q = (vecs * np.sqrt(evals)) @ vecs.T
        inv_q = (vecs / evals) @ vecs.T
        inv_sqrt_q = (vecs / np.sqrt(evals)) @ vecs.T
        norm._memo["q"] = (sqrt_q, inv_q, inv_sqrt_q)
    return norm._memo["q"]


def _require_table(norm):
    if norm.support is None:
        raise ModelNotReady("support_table norm has no table loaded")
    return norm.support


def _table_frame(norm):
    """Cached node directions and values used by the gauge argmax."""
    if "frame" not in norm._memo:
        table = _require_table(norm)
        u = unit_vector(table.phi)
        norm._memo["frame"] = (table, u, table.h)
    return norm._memo["frame"]


# ---------------------------------------------------------------------------
# norm evaluation
# ---------------------------------------------------------------------------

def _contact_angle(norm, x):
    """Angle whose supporting line touches the ray through ``x``.

    This is the argmax of q(phi) = <x, u(phi)> / h(phi); the maximizer of q
    is the outward-normal angle of the boundary point hit by the ray.  The
    coarse grid argmax is refined by a bracketing root solve on
    r(phi) = <x, u'(phi)> h(phi) - <x, u(phi)> h'(phi), which vanishes
    exactly at the contact angle and crosses zero transversally for a
    strictly convex table.
    """
    table, u, h_nodes = _table_frame(norm)
    n = len(h_nodes)
    scores = (u @ x) / h_nodes
    i = int(np.argmax(scores))
    phi0 = table.phi[i]
    step = 2.0 * np.pi / n

    def resid(phi):
        c, s = np.cos(phi), np.sin(phi)
        dot_u = x[0] * c + x[1] * s
        dot_up = -x[0] * s + x[1] * c
        return dot_up * table.support(phi) - dot_u * table.support_deriv(phi)

    for widen in (1, 2, 4, 8):
        a, b = phi0 - widen * step, phi0 + widen * step
        ra, rb = resid(a), resid(b)
        if ra > 0.0 > rb:
            return brentq(resid, a, b, xtol=1e-13)
        if ra == 0.0:
            return a
        if rb == 0.0:
            return b
    # no sign change: fall back to a direct search of q on the half-circle
    def q(phi):
        uu = unit_vector(phi)
        return float(np.dot(x, uu)) / float(table.support(phi))

    phi_star, _ = golden_section_max(q, phi0 - 0.5 * np.pi, phi0 + 0.5 * np.pi, tol=1e-12)
    return phi_star


def _table_gauge(norm, x):
    """Minkowski gauge of ``x`` for a tabulated body (max of <x,u>/h)."""
    x = np.asarray(x, dtype=float)
    if np.all(x == 0.0):
        return 0.0
    phi = _contact_angle(norm, x)
    u = unit_vector(phi)
    table = _require_table(norm)
    return float(np.dot(x, u)) / float(table.support(phi))


def eval_norm(norm, x):
    """Evaluate the norm at ``x``; accepts stacked inputs (..., dim)."""
    x = np.asarray(x, dtype=float)
    if norm.kind == "euclidean":
        return np.linalg.norm(x, axis=-1)
    if norm.kind == "lp":
        return np.sum(np.abs(x) ** norm.p, axis=-1) ** (1.0 / norm.p)
    if norm.kind == "inner_product":
        return np.sqrt(np.einsum("...i,ij,...j->...", x, norm.Q, x))
    if norm.kind == "support_table":
        _require_table(norm)
        if x.ndim == 1:
            return _table_gauge(norm, x)
        flat = x.reshape(-1, x.shape[-1])
        out = np.array([_table_gauge(norm, row) for row in flat])
        return out.reshape(x.shape[:-1])
    raise ValueError(f"unknown norm kind {norm.kind!r}")


def sphere_point(norm, v):
    """Radially rescale ``v`` onto the unit sphere of ``norm``."""
    v = np.asarray(v, dtype=float)
    r = float(eval_norm(norm, v))
    if r == 0.0:
        raise ValueError("cannot normalize the zero vector")
    coords = v / r
    ang = polar_angle(coords) if norm.dim == 2 else None
    return SpherePoint(coords=coords, polar_angle=ang)


# ---------------------------------------------------------------------------
# Gauss map and its inverse
# ---------------------------------------------------------------------------

def _gradient_direction(norm, x):
    """Un-normalized outward normal of the sphere on the ray through x."""
    if norm.kind == "euclidean":
        return x
    if norm.kind == "lp":
        return np.sign(x) * np.abs(x) ** (norm.p - 1.0)
    if norm.kind == "inner_product":
        return norm.Q @ x
    raise ValueError(f"no closed-form gradient for kind {norm.kind!r}")


def norm_gradient(norm, y):
    """Gradient of y -> ||y|| at a nonzero point.

    For tabulated models the envelope theorem gives the gradient of the
    gauge as u(phi*) / h(phi*) at the contact angle phi* of the ray.
    """
    y = np.asarray(y, dtype=float)
    if norm.kind == "support_table":
        table = _require_table(norm)
        phi = _contact_angle(norm, y)
        return unit_vector(phi) / float(table.support(phi))
    g = _gradient_direction(norm, y)
    if norm.kind == "euclidean":
        return g / np.linalg.norm(y)
    if norm.kind == "lp":
        return g / float(eval_norm(norm, y)) ** (norm.p - 1.0)
    return g / float(eval_norm(norm, y))


def gauss_map(norm, x):
    """Euclidean unit outward normal of the norm sphere at ``x``.

    The direction is constant along rays, so any nonzero ``x`` (or a
    SpherePoint) is accepted and the result is the normal at x/||x||.
    """
    if isinstance(x, SpherePoint):
        x = x.coords
    x = np.asarray(x, dtype=float)
    if np.all(x == 0.0):
        raise ValueError("Gauss map undefined at the origin")
    if norm.kind == "support_table":
        table = _require_table(norm)
        phi = _contact_angle(norm, x)
        # a corner of the body shows up as locally vanishing curvature radius
        # h + h'' (identically zero support parabola on the normal fan)
        step = table.phi[1] - table.phi[0]
        local = table.support(phi) + (
            table.support(phi + step) + table.support(phi - step) - 2.0 * table.support(phi)
        ) / step**2
        if not np.isfinite(local) or local <= 1e-3 * float(table.support(phi)):
            raise NotSmoothHere(f"no unique normal at angle {phi:.6f}")
        return unit_vector(phi)
    g = _gradient_direction(norm, x)
    return g / np.linalg.norm(g)


def _gauss_many(norm, pts):
    """Vectorized Gauss map for a stack of points (loops only for tables)."""
    pts = np.asarray(pts, dtype=float)
    if norm.kind == "support_table":
        return np.array([gauss_map(norm, p) for p in pts])
    if norm.kind == "euclidean":
        g = pts.copy()
    elif norm.kind == "lp":
        g = np.sign(pts) * np.abs(pts) ** (norm.p - 1.0)
    else:
        g = pts @ norm.Q.T
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def inverse_gauss(norm, w):
    """Support point: the sphere point whose outward normal is ``w``.

    Closed forms exist for the euclidean, lp and inner-product models in any
    dimension.  A tabulated planar model is indexed by outward-normal angle,
    so its support point is the table's boundary point at the polar angle
    of w.
    """
    if isinstance(w, HyperplaneNormal):
        w = w.w
    w = np.asarray(w, dtype=float)
    w = w / np.linalg.norm(w)
    if norm.kind == "euclidean":
        return sphere_point(norm, w)
    if norm.kind == "lp":
        q_conj = norm.p / (norm.p - 1.0)
        y = np.sign(w) * np.abs(w) ** (q_conj - 1.0)
        return sphere_point(norm, y)
    if norm.kind == "inner_product":
        _, inv_q, _ = _q_matrices(norm)
        y = inv_q @ w
        return sphere_point(norm, y)
    if norm.kind == "support_table":
        x = _require_table(norm).boundary_point(polar_angle(w))
        return SpherePoint(coords=x, polar_angle=polar_angle(x))
    raise ValueError(f"unknown norm kind {norm.kind!r}")


# ---------------------------------------------------------------------------
# sphere-wide diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussReport:
    """Summary of a full sweep of the Gauss map around a planar sphere."""

    grid_size: int
    antipodality_defect: float
    monotone: bool
    min_inner: float
    winding: float


def check_gauss_properties(norm, grid_size=1024):
    """Sweep S^1 of the norm and test homeomorphism-style properties.

    Reports the worst antipodality defect |G(-x) + G(x)|, whether the polar
    angle of G is strictly increasing along a counterclockwise sweep (an
    injectivity proxy), and the minimum of <x, G(x)>.
    """
    if norm.dim != 2:
        raise ValueError("check_gauss_properties is planar-only")
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    t = 2.0 * np.pi * np.arange(grid_size) / grid_size
    dirs = unit_vector(t)
    radii = np.asarray(eval_norm(norm, dirs))
    pts = dirs / radii[:, None]
    g = _gauss_many(norm, pts)
    g_neg = _gauss_many(norm, -pts)
    defect = float(np.max(np.linalg.norm(g_neg + g, axis=1)))
    # relative angle between consecutive normals via cross/dot: absolute
    # angles flatten to identical floats on very flat spheres (high p)
    g_next = np.roll(g, -1, axis=0)
    cross = g[:, 0] * g_next[:, 1] - g[:, 1] * g_next[:, 0]
    dot = np.sum(g * g_next, axis=1)
    diffs = np.arctan2(cross, dot)
    monotone = bool(np.all(diffs > 0.0))
    winding = float(np.sum(diffs))
    min_inner = float(np.min(np.sum(pts * g, axis=1)))
    return GaussReport(
        grid_size=grid_size,
        antipodality_defect=defect,
        monotone=monotone,
        min_inner=min_inner,
        winding=winding,
    )


def find_gauss_fixed_points(norm, coarse=4096):
    """Points of the planar sphere where G(v) is radial.

    Returns ``(farthest, closest)``: the sphere point maximizing and the one
    minimizing Euclidean distance to the origin, which are exactly the fixed
    points of the normalized Gauss map.
    """
    if norm.dim != 2:
        raise ValueError("find_gauss_fixed_points is planar-only")
    t = np.pi * np.arange(coarse) / coarse  # antipodal quotient suffices
    radii = np.asarray(eval_norm(norm, unit_vector(t)))
    euclid_r = 1.0 / radii

    def radius(angle):
        return 1.0 / float(eval_norm(norm, unit_vector(angle)))

    spread = float(np.max(euclid_r) - np.min(euclid_r))
    if spread < 1e-12:
        # isometric circle: every point is fixed, return axis representatives
        return sphere_point(norm, np.array([1.0, 0.0])), sphere_point(
            norm, np.array([0.0, 1.0])
        )
    step = np.pi / coarse
    i_max = int(np.argmax(euclid_r))
    i_min = int(np.argmin(euclid_r))
    t_max, _ = golden_section_max(radius, t[i_max] - step, t[i_max] + step, tol=1e-12)
    t_min, _ = golden_section_max(
        lambda a: -radius(a), t[i_min] - step, t[i_min] + step, tol=1e-12
    )
    far = sphere_point(norm, unit_vector(t_max))
    near = sphere_point(norm, unit_vector(t_min))
    return far, near


def gauss_fixed_point_defect(norm, point):
    """|G(v) - v/|v|| for a sphere point; zero at a true fixed point."""
    v = point.coords
    return float(np.linalg.norm(gauss_map(norm, v) - v / np.linalg.norm(v)))


def sphere_radius_bounds(norm, grid=512):
    """Cached (min, max) Euclidean radius of the unit sphere (planar)."""
    key = ("radius_bounds", grid)
    if key not in norm._memo:
        t = 2.0 * np.pi * np.arange(grid) / grid
        radii = 1.0 / np.asarray(eval_norm(norm, unit_vector(t)))
        norm._memo[key] = (float(np.min(radii)), float(np.max(radii)))
    return norm._memo[key]
