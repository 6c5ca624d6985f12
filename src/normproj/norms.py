"""Strictly convex norms on the plane, their Gauss maps and support points.

A norm model is one of four concrete kinds of norm on R^2:

* ``euclidean``      -- the standard norm |x|,
* ``lp``             -- (sum |x_i|^p)^(1/p) with p in (1, inf),
* ``inner_product``  -- sqrt(x' Q x) for a symmetric positive-definite Q,
* ``support_table``  -- a norm tabulated by the support function of
                        its unit ball at strictly increasing angles, node
                        i + n/2 the antipode of node i.

All models are antipodally symmetric and strictly convex, so the unit sphere
has a unique outward Euclidean unit normal at every point (the Gauss map G)
and G is invertible: the preimage of a direction w is the point of the unit
sphere where <x, w> is maximal (the support point).  Non-strictly-convex
parameters (p = 1 or infinity, singular Q, a table failing its convexity
check) are rejected at construction time, never at use.

The closed forms share one core, a row's size (``_size``) and its outward
normal (``_direction``) as written.  Every function of a ray (Gauss map,
gradient, support and sphere point, hyperplane normal) raises ValueError at
the zero vector, where ``eval_norm`` returns 0.  A row whose size leaves the
normal float range, a subnormal power sum included, is evaluated divided by
its largest |x_i|.

Everything here is pure and the model objects are treated as immutable; the
only mutation is an internal memo cache of derived matrices and of a table's
cubic Hermite coefficients and node angles.  A table built by
``cantor.build_norm`` also carries, in ``NormModel.curve``, the sampled
staircase arc it was assembled from; every other model has ``None``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import VERSION_HEADER
from .errors import NotSmoothHere, NotStrictlyConvex

# No longer solvers here; perfbench/job.py still counts calls to them by
# name, and the next change to the benchmark drops them from ``SOLVERS``.
brentq = None
golden_section_max = None

ANTIPODAL_TABLE_TOL = 1e-10  # h(phi+pi) = h(phi) for stored tables
_ZERO_COORD_TOL = 1e-12      # "first nonzero coordinate" cutoff
MIN_GAUSS_GRID = 16          # fewest sweep points of check_gauss_properties
_TURN_TOL = 1e-9             # |total turn of G - 2*pi| a monotone sweep allows
_CSV_CHUNK_ROWS = 8192       # table rows formatted per write of SupportTable.to_csv
_FLOAT_TINY = np.finfo(float).tiny   # smallest normal float
_SQRT_FLOAT_TINY = np.sqrt(_FLOAT_TINY)   # a length below it sums subnormal squares


def unit_vector(angle):
    """Unit vector (cos a, sin a); vectorized over ``angle``."""
    angle = np.asarray(angle, dtype=float)[..., None]
    return np.concatenate([np.cos(angle), np.sin(angle)], axis=-1)


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


def _planar(x):
    """``x`` as a float array whose last axis holds two coordinates.

    The library is planar; a vector of any other length is refused here
    rather than broadcast into a wrong answer.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 2:
        raise ValueError(f"normproj is planar: need 2 coordinates on the last axis, got shape {x.shape}")
    return x


def _rays(x):
    """The (N, 2) rows of ``x``; a zero row, or one with an infinite or NaN
    coordinate, spans no ray and is refused."""
    rows = _planar(x).reshape(-1, 2)
    if np.count_nonzero(rows) < rows.size and not rows.any(axis=1).all():   # cheap test first
        raise ValueError("the zero vector spans no ray")
    if not np.isfinite(rows).all():
        raise ValueError("a vector with an infinite or NaN coordinate spans no ray")
    return rows


def _on_rays(rows, fn, low):
    """The values of ``fn(rows)``, a pair (values, sizes), where a row whose
    size is below ``low``, inf or NaN, and whose largest |coordinate| m is
    finite, is evaluated again at row / m; and m, 1 on the rows kept."""
    with np.errstate(all="ignore"):
        values, size = fn(rows)
        keep = (size >= low) & (size < np.inf)
        if keep.all():
            return values, 1.0
        m = np.max(np.abs(rows), axis=1)
        redo = ~keep & (m < np.inf)
        m = np.where(redo, m, 1.0)
        values[redo] = fn(rows[redo] / m[redo, None])[0]
    return values, m


def _unit(v):
    """One vector over its length sqrt(v @ v), rounded as ``np.linalg.norm`` does."""
    def fn(r):
        n = np.sqrt(r.ravel() @ r.ravel())
        return r / n, n   # a scalar size: the cheap test of a single row
    return _on_rays(_rays(v), fn, _SQRT_FLOAT_TINY)[0].reshape(np.shape(v))


@dataclass(frozen=True)
class HyperplaneNormal:
    """Euclidean unit normal of a hyperplane, canonical up to antipodes.

    The stored vector has unit length and its first coordinate of magnitude
    above 1e-12 is positive, so equal hyperplanes yield equal vectors.
    """

    w: np.ndarray

    def __post_init__(self):
        w = canonicalize_direction(_unit(self.w))
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @classmethod
    def from_angle(cls, theta):
        return cls(unit_vector(theta))

    @property
    def angle(self):
        """Representative angle in [0, pi)."""
        return float(np.mod(np.arctan2(self.w[1], self.w[0]), np.pi))

    def line_direction(self):
        """Canonical unit vector spanning w-perp."""
        return canonicalize_direction(rot90(self.w))


def _segment(knots, x):
    """Index of the knot segment holding each angle of ``x`` in the knots' turn."""
    return np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(knots) - 2)


def _piecewise_poly(knots, coeffs, angle):
    """Evaluate a periodic piecewise polynomial at ``angle`` mod 2*pi.

    The knots span one turn from knots[0], into which ``angle`` is first
    reduced.  A point on a knot belongs to the segment it starts, the last
    knot to the last segment.
    The sum runs from the constant term up with powers built by repeated
    multiplication, the order of SciPy's ``PPoly`` (not Horner), so results
    match it bit for bit.  Returns an array of the shape of ``angle``.
    """
    x = np.asarray(knots[0] + np.mod(angle - knots[0], 2.0 * np.pi), dtype=float)
    flat = x.reshape(-1)
    seg = _segment(knots, flat)
    s = flat - knots[seg]
    res, z = 0.0, 1.0
    for c in coeffs[::-1]:
        res = res + c[seg] * z
        z = z * s
    return res.reshape(x.shape)


@dataclass
class SupportTable:
    """Support function of a planar convex body at tabulated angles.

    ``phi`` are the node angles, strictly increasing on [0, 2*pi) and
    spaced as the builder likes; ``h`` the support values, ``dh`` the
    angular derivatives.  The count n is even and node i + n/2 is the
    antipode of node i, the pairing ``antipodal_defect`` compares.  The
    cubic Hermite spline of (h, dh) is the table's one model of the body:
    support, boundary points, contact angles and curvature all read it,
    and it is C^1 by construction, since each node has one dh.
    """

    phi: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        self.dh = np.asarray(self.dh, dtype=float)
        n = len(self.phi)
        if n % 2 != 0:
            raise ValueError("table size must be even (antipodal pairing)")
        if not (len(self.h) == len(self.dh) == n):
            raise ValueError("phi, h, dh must have equal length")
        if not all(np.isfinite(arr).all() for arr in (self.phi, self.h, self.dh)):
            raise ValueError("phi, h, dh must be finite")
        if not (np.all(self.phi >= 0.0) and np.all(np.diff(np.append(self.phi, 2.0 * np.pi)) > 0.0)):
            raise ValueError("phi must start at or above 0, increase strictly and stay below 2*pi")
        for arr in (self.phi, self.h, self.dh):
            arr.flags.writeable = False

    # -- interpolation ----------------------------------------------------

    def _spline(self):
        """Knots and (4, n) power-basis coefficients of the C^1 cubic Hermite
        interpolant of (h, dh) on [phi_0, phi_0 + 2*pi], and those of its
        derivative; the last segment closes onto node 0 turned by 2*pi.

        Row i of the coefficients multiplies (phi - knot)^(3 - i); the
        formulas and their floating-point order are those of SciPy's
        ``CubicHermiteSpline``, so values match it bit for bit.
        """
        if "spline" not in self._memo:
            knots = np.append(self.phi, self.phi[0] + 2.0 * np.pi)
            h = np.append(self.h, self.h[0])
            dh = np.append(self.dh, self.dh[0])
            step = np.diff(knots)
            slope = np.diff(h) / step
            t = (dh[:-1] + dh[1:] - 2 * slope) / step
            coeffs = np.stack([t / step, (slope - dh[:-1]) / step - t, dh[:-1], h[:-1]])
            self._memo["spline"] = (knots, coeffs, coeffs[:-1] * np.array([3.0, 2.0, 1.0])[:, None])
        return self._memo["spline"]

    def support(self, angle):
        knots, coeffs, _ = self._spline()
        return _piecewise_poly(knots, coeffs, angle)

    def support_deriv(self, angle):
        knots, _, dcoeffs = self._spline()
        return _piecewise_poly(knots, dcoeffs, angle)

    def boundary_point(self, angle):
        """Boundary point with outward normal at ``angle``: h*u + h'*u_perp."""
        u = unit_vector(angle)
        up = rot90(u)
        h = self.support(angle)
        dh = self.support_deriv(angle)
        return (np.asarray(h)[..., None] * u) + (np.asarray(dh)[..., None] * up)

    def node_points(self):
        """``boundary_point(phi)`` from the table's own values: at a knot
        the spline gives h and h' exactly."""
        u = unit_vector(self.phi)
        return self.h[:, None] * u + self.dh[:, None] * rot90(u)

    def node_angles(self):
        """Cached polar angles of ``node_points()``, unwrapped and closed by
        alpha[n] = alpha[0] + 2*pi.  A ray at polar angle alpha[j] <= a <
        alpha[j+1] has its contact angle in knot segment j, so a table whose
        boundary points stall (a corner) or turn back (a fold) is refused."""
        if "angles" not in self._memo:
            nodes = self.node_points()
            alpha = np.unwrap(np.arctan2(nodes[:, 1], nodes[:, 0]))
            alpha = np.append(alpha, alpha[0] + 2.0 * np.pi)
            if not np.all(np.diff(alpha) > 0.0):
                bad = int(np.argmin(np.diff(alpha)))
                raise NotStrictlyConvex(f"node boundary points do not turn monotonically "
                                        f"at angle {self.phi[bad]:.6f}")
            self._memo["angles"] = alpha
        return self._memo["angles"]

    # -- diagnostics -------------------------------------------------------

    def antipodal_defect(self):
        half = len(self.phi) // 2
        dh_half = np.roll(self.h, -half) - self.h
        dd_half = np.roll(self.dh, -half) - self.dh
        return float(max(np.max(np.abs(dh_half)), np.max(np.abs(dd_half))))

    def convexity_slack(self):
        """Min of the spline's curvature radius h + h'' at both ends of every
        knot segment; > 0 is convex.

        On a segment h'' = 6 c3 s + 2 c2, so the radius is h + 2 c2 at the
        segment's start and h_{i+1} + 6 c3 step + 2 c2 at its end.
        """
        knots, (c3, c2, _, c0), _ = self._spline()
        start = c0 + 2.0 * c2
        end = np.roll(c0, -1) + 6.0 * c3 * np.diff(knots) + 2.0 * c2
        return float(min(np.min(start), np.min(end)))

    def validate(self):
        """Raise NotStrictlyConvex unless the table describes a valid norm;
        every refusal of a table runs here."""
        if np.min(self.h) <= 0.0:
            raise NotStrictlyConvex("support values must be positive")
        if self.antipodal_defect() > ANTIPODAL_TABLE_TOL:
            raise NotStrictlyConvex(
                f"table not antipodally symmetric (defect {self.antipodal_defect():.3e})"
            )
        slack = self.convexity_slack()
        if not slack > 0.0:
            raise NotStrictlyConvex(f"table fails h + h'' > 0 (min slack {slack:.3e})")
        self.node_angles()

    # -- persistence -------------------------------------------------------

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(VERSION_HEADER + "\nphi,h,dh\n")
            # round-trip digits, so from_csv reads back the table's bits (at 12
            # digits the spline read back from level 11 on is not convex);
            # format Python floats a chunk at a time: numpy scalars format
            # slowly, and one list of the whole table raises the peak memory
            for i in range(0, len(self.phi), _CSV_CHUNK_ROWS):
                chunk = slice(i, i + _CSV_CHUNK_ROWS)
                rows = zip(self.phi[chunk].tolist(), self.h[chunk].tolist(), self.dh[chunk].tolist())
                fh.write("".join("%r,%r,%r\n" % (p + 0.0, h + 0.0, dh + 0.0) for p, h, dh in rows))

    @classmethod
    def from_csv(cls, path):
        rows = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("phi"):
                    continue
                fields = line.split(",")
                if len(fields) != 3:
                    raise ValueError(f"line {lineno}: expected 3 fields phi,h,dh, got {len(fields)}")
                rows.append([float(v) for v in fields])
        if not rows:
            raise ValueError("no table rows")
        data = np.asarray(rows, dtype=float)
        return cls(phi=data[:, 0], h=data[:, 1], dh=data[:, 2])


@dataclass
class NormModel:
    """A strictly convex norm given by kind plus parameters.

    ``p`` is set for ``lp``, ``Q`` for ``inner_product`` and ``support``
    for ``support_table``, which is refused without it; the others stay
    ``None``.  ``curve`` is the staircase arc a ``cantor.build_norm`` table
    was assembled from.  ``_memo`` caches Q's square roots and inverse and
    the sphere's radius bounds.
    """

    kind: str
    p: float | None = None
    Q: np.ndarray | None = None
    support: SupportTable | None = None
    curve: object = field(default=None, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "support_table" and self.support is None:
            raise ValueError("a support_table norm needs its table")


def euclidean():
    return NormModel(kind="euclidean")


def lp(p):
    p = float(p)
    if not (1.0 < p < np.inf):
        raise NotStrictlyConvex(f"lp norm requires p in (1, inf), got {p}")
    return NormModel(kind="lp", p=p)


def inner_product(Q):
    """Norm sqrt(x' Q x); any size of Q passes, as ``conjugate_projection`` checks its Q here."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise NotStrictlyConvex("Q must be a square matrix")
    # both bounds are relative to Q's own scale: c Q passes with Q
    if np.max(np.abs(Q - Q.T)) > 1e-12 * np.max(np.abs(Q)):
        raise NotStrictlyConvex("Q must be symmetric")
    eig = np.linalg.eigvalsh(Q)
    if eig[0] <= 0.0:
        raise NotStrictlyConvex("Q must be positive-definite")
    if eig[0] <= 1e-12 * eig[-1] or eig[0] < _FLOAT_TINY:   # Q^-1 holds 1 / eig[0]
        raise NotStrictlyConvex(f"Q's smallest eigenvalue {eig[0]:.3g} must exceed 1e-12 * "
                                f"its largest eigenvalue {eig[-1]:.3g} and be a normal float")
    Q = 0.5 * Q + 0.5 * Q.T   # (Q + Q.T) / 2 overflows where Q is near the float maximum
    Q.flags.writeable = False
    return NormModel(kind="inner_product", Q=Q)


def from_support_table(table):
    """Planar norm from a support table; the table is validated first."""
    table.validate()
    return NormModel(kind="support_table", support=table)


def _q_matrices(norm):
    if "q" not in norm._memo:
        evals, vecs = np.linalg.eigh(norm.Q)
        sqrt_q = (vecs * np.sqrt(evals)) @ vecs.T
        inv_q = (vecs / evals) @ vecs.T
        inv_sqrt_q = (vecs / np.sqrt(evals)) @ vecs.T
        norm._memo["q"] = (sqrt_q, inv_q, inv_sqrt_q)
    return norm._memo["q"]


# ---------------------------------------------------------------------------
# norm evaluation
# ---------------------------------------------------------------------------

_CONTACT_MAX_STEPS = 100   # each step shrinks the bracket; bisection alone needs ~50
_CONTACT_ANGLE_TOL = 1e-14


def _contact_angle(norm, x):
    """Angles whose supporting lines touch the rays through the rows of ``x``.

    For each nonzero row of the (N, 2) stack ``x`` this is the outward-normal
    angle phi* of the boundary point b(phi) = h u + h' u_perp hit by the ray,
    the root of r(phi) = cross(b(phi), x) = h <x, u_perp> - h' <x, u>.  The
    polar angle of the ray falls between the table's ``node_angles`` of two
    consecutive nodes (one ``searchsorted``), which brackets
    phi* in one spline segment.  On that segment's cubic a safeguarded
    Newton iteration runs on all rows at once, with slope
    r' = -(h + h'') <x, u>; a step that leaves the bracket is replaced by
    bisection, a step that lands on a bracket end is kept.  Each row stops
    on its own, so a stack gives the same angles as row-by-row calls.
    """
    knots, coeffs, _ = norm.support._spline()
    alpha = norm.support.node_angles()
    n = len(knots) - 1
    x0, x1 = x[:, 0], x[:, 1]
    ray = alpha[0] + np.mod(np.arctan2(x1, x0) - alpha[0], 2.0 * np.pi)
    seg = np.clip(np.searchsorted(alpha, ray, side="right") - 1, 0, n - 1)
    c3, c2, c1, c0 = coeffs[:, seg]   # c_i multiplies (phi - knot)^i
    lo, hi = knots[seg], knots[seg + 1]
    frac = (ray - alpha[seg]) / (alpha[seg + 1] - alpha[seg])
    phi = lo + (hi - lo) * np.clip(frac, 0.0, 1.0)
    a, b = lo.copy(), hi.copy()
    rows = np.arange(len(phi))
    for _ in range(_CONTACT_MAX_STEPS):
        if rows.size == 0:
            break
        p = phi[rows]
        s = p - lo[rows]
        k3, k2, k1 = c3[rows], c2[rows], c1[rows]
        h = ((k3 * s + k2) * s + k1) * s + c0[rows]
        dh = (3.0 * k3 * s + 2.0 * k2) * s + k1
        d2h = 6.0 * k3 * s + 2.0 * k2
        cos, sin = np.cos(p), np.sin(p)
        xu = x0[rows] * cos + x1[rows] * sin
        r = h * (x1[rows] * cos - x0[rows] * sin) - dh * xu
        ra = np.where(r > 0.0, p, a[rows])
        rb = np.where(r < 0.0, p, b[rows])
        a[rows], b[rows] = ra, rb
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p + r / ((h + d2h) * xu)   # p - r / r'
        inside = (ra <= step) & (step <= rb)
        new = np.where(r == 0.0, p, np.where(inside, step, 0.5 * (ra + rb)))
        phi[rows] = new
        rows = rows[(r != 0.0) & (np.abs(new - p) > _CONTACT_ANGLE_TOL)]
    return phi


def _contact(norm, rows):
    """The contact angle phi of each row of an (N, 2) stack under a table
    norm, with u(phi) and the support h(phi)."""
    phi = _contact_angle(norm, rows)
    return phi, unit_vector(phi), norm.support.support(phi)


def _q_times(norm, x):
    """Q x at a point or at each row of a stack.  The two-operand einsum
    gives a row the bits of the same point alone; ``x @ Q.T`` does not."""
    return np.einsum("...j,ij->...i", x, norm.Q)


def _size(norm, rows):
    """The norm of each nonzero row of an (N, 2) stack as written: far from
    the unit scale powers of the coordinates over- or underflow, and the
    size reads inf, 0 or (inf - inf) NaN.  Callers rescue with ``_on_rays``."""
    if norm.kind == "euclidean":
        return np.linalg.norm(rows, axis=-1)
    if norm.kind == "lp":
        return np.sum(np.abs(rows) ** norm.p, axis=-1) ** (1.0 / norm.p)
    if norm.kind == "inner_product":
        return np.sqrt(np.sum(rows * _q_times(norm, rows), axis=-1))
    if norm.kind == "support_table":
        _, u, h = _contact(norm, rows)
        return (rows[:, 0] * u[:, 0] + rows[:, 1] * u[:, 1]) / h
    raise ValueError(f"unknown norm kind {norm.kind!r}")


def _size_floor(norm):
    """Below tiny^(1/p) a size's power sum is subnormal; p = 2 but for lp."""
    return _FLOAT_TINY ** (1.0 / (norm.p or 2.0))


def eval_norm(norm, x):
    """Evaluate the norm at ``x``; accepts stacked inputs (..., 2).

    Every kind is evaluated on the (N, 2) stack of rows, so a point gives
    the bits of the same row in any stack.  A row whose size leaves the
    normal float range is evaluated at x / m, m = max |x_i|, and scaled
    back; the zero vector has norm 0.
    """
    rows = _planar(x).reshape(-1, 2)
    live = rows.any(axis=1)
    out = np.zeros(len(rows))
    size, m = _on_rays(rows[live], lambda r: (_size(norm, r),) * 2, _size_floor(norm))
    out[live] = m * size
    return out.reshape(np.shape(x)[:-1])[()]


def sphere_point(norm, v):
    """Radially rescale ``v`` onto the unit sphere of ``norm``.

    Where the size of ``v`` leaves the normal float range, ``v`` is first
    divided by max |v_i|: every scale of a ray gives its unit-scale bits.
    """
    def fn(r):
        size = _size(norm, r)
        return r / size[:, None], size
    return _on_rays(_rays(v), fn, _size_floor(norm))[0].reshape(np.shape(v))


# ---------------------------------------------------------------------------
# Gauss map and its inverse
# ---------------------------------------------------------------------------

def _direction(norm, rows):
    """Outward normal of a closed-form model at each row of an (N, 2) stack,
    unnormalized and as written: the gradient of ||y||^p / p, p = 2 but for lp."""
    if norm.kind == "lp":
        return np.sign(rows) * np.abs(rows) ** (norm.p - 1.0)
    if norm.kind == "inner_product":
        return _q_times(norm, rows)
    return rows


def norm_gradient(norm, y):
    """Gradient of y -> ||y|| at a nonzero point, or at each row of a stack.

    For tabulated models the envelope theorem gives the gradient of the
    gauge as u(phi*) / h(phi*) at the contact angle phi* of the ray.  Every
    kind is evaluated on the (N, 2) stack of rows.
    """
    rows = _rays(y)
    if norm.kind == "support_table":
        _, u, h = _contact(norm, rows)
        grad = u / h[:, None]
    else:
        def fn(r):   # _direction / ||y||^(p-1), p = 2 but for lp: x ** 1.0 is exact
            scale = eval_norm(norm, r) ** ((norm.p or 2.0) - 1.0)
            return _direction(norm, r) / scale[:, None], scale
        grad = _on_rays(rows, fn, _FLOAT_TINY)[0]
    return grad.reshape(np.shape(y))


def gauss_map(norm, x):
    """Euclidean unit outward normal of the norm sphere at ``x``.

    The direction is constant along rays, so any nonzero ``x`` is accepted
    and the result is the normal at x/||x||.  Accepts stacked inputs
    (..., 2), one normal per row.  A row at a corner of a table's body, where
    the spline's curvature radius h + h'' = h + 6 c3 s + 2 c2 at the contact
    angle is at most 1e-3 h, raises NotSmoothHere.
    """
    rows = _rays(x)
    if norm.kind == "support_table":
        phi, u, h = _contact(norm, rows)
        knots, (c3, c2, _, _), _ = norm.support._spline()
        seg = _segment(knots, phi)
        corner = ~(h + 6.0 * c3[seg] * (phi - knots[seg]) + 2.0 * c2[seg] > 1e-3 * h)
        if np.any(corner):
            raise NotSmoothHere(f"no unique normal at angle {phi[np.argmax(corner)]:.6f}")
        return u.reshape(np.shape(x))

    def unit(g):
        n = np.linalg.norm(g, axis=-1)
        return g / n[:, None], n

    def fn(r):   # a normal g whose length alone leaves the float range: g / max |g_i|
        g = _direction(norm, r)
        return _on_rays(g, unit, _SQRT_FLOAT_TINY)[0], np.linalg.norm(g, axis=-1)
    return _on_rays(rows, fn, _SQRT_FLOAT_TINY)[0].reshape(np.shape(x))


def inverse_gauss(norm, w):
    """Support point: the sphere point whose outward normal is ``w``.

    A closed-form model maps w to its dual direction (w itself, the dual
    exponent q = p/(p-1) applied to w, or Q^-1 w) and scales that onto the
    sphere.  A tabulated model is indexed by outward-normal angle, so its
    support point is the table's boundary point at the polar angle of w.
    """
    w = _unit(w)
    if norm.kind == "support_table":
        return norm.support.boundary_point(polar_angle(w))
    if norm.kind == "lp":
        q_conj = norm.p / (norm.p - 1.0)

        def fn(r):   # near p = 1 the powers of a unit w can all underflow
            d = np.sign(r) * np.abs(r) ** (q_conj - 1.0)
            return d, np.max(np.abs(d), axis=-1)
        w = _on_rays(w.reshape(-1, 2), fn, _FLOAT_TINY)[0].reshape(w.shape)
    elif norm.kind == "inner_product":
        w = _q_matrices(norm)[1] @ w
    return sphere_point(norm, w)


# ---------------------------------------------------------------------------
# sphere-wide diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussReport:
    """Summary of a full sweep of the Gauss map around the unit sphere."""

    grid_size: int
    antipodality_defect: float
    monotone: bool
    min_inner: float


def check_gauss_properties(norm, grid_size=1024):
    """Sweep S^1 of the norm and test homeomorphism-style properties.

    Reports the worst antipodality defect |G(-x) + G(x)|, whether the polar
    angle of G never decreases along a counterclockwise sweep and turns once
    in all (an injectivity proxy), and the minimum of <x, G(x)>.
    """
    if grid_size < MIN_GAUSS_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GAUSS_GRID}")
    t = 2.0 * np.pi * np.arange(grid_size) / grid_size
    dirs = unit_vector(t)
    radii = np.asarray(eval_norm(norm, dirs))
    pts = dirs / radii[:, None]
    g = gauss_map(norm, pts)
    g_neg = gauss_map(norm, -pts)
    defect = float(np.max(np.linalg.norm(g_neg + g, axis=1)))
    # relative angle between consecutive normals via cross/dot: absolute
    # angles flatten to identical floats on very flat spheres (high p), and
    # there neighbouring normals can round to the same pair, a zero step
    g_next = np.roll(g, -1, axis=0)
    cross = g[:, 0] * g_next[:, 1] - g[:, 1] * g_next[:, 0]
    dot = np.sum(g * g_next, axis=1)
    diffs = np.arctan2(cross, dot)
    monotone = bool(np.all(diffs >= 0.0) and abs(np.sum(diffs) - 2.0 * np.pi) <= _TURN_TOL)
    min_inner = float(np.min(np.sum(pts * g, axis=1)))
    return GaussReport(
        grid_size=grid_size,
        antipodality_defect=defect,
        monotone=monotone,
        min_inner=min_inner,
    )


def find_gauss_fixed_points(norm):
    """Points of the unit sphere where G(v) is radial.

    Returns ``(farthest, closest)``: the sphere point maximizing and the one
    minimizing Euclidean distance to the origin.  A fixed point of the
    normalized Gauss map is a sphere point at a critical Euclidean radius,
    where the support function h has h' = 0 and the support point is h u;
    the extreme radii are max h and min h.  Each kind has a closed form:

    * ``support_table``: on each knot segment h' is a quadratic, so the
      candidates are the knots and the in-segment roots of those
      quadratics; the answers are the boundary points at the largest and
      smallest h among them;
    * ``inner_product``: the eigenvectors of Q for its smallest and largest
      eigenvalue, canonicalized and scaled onto the sphere;
    * ``lp``: the diagonal and an axis, farthest first for p > 2 and the
      other way round for p < 2.

    Where every point is fixed (the euclidean norm, lp with p = 2, Q with
    equal eigenvalues, a table of constant h) the sphere points on the axes
    through (1, 0) and (0, 1) stand for them.
    """
    axis, other_axis, diagonal = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.ones(2)
    if norm.kind == "support_table":
        table = norm.support
        knots, _, (a, b, c) = table._spline()   # h' = a s^2 + b s + c on each segment
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
            s = np.concatenate([q / a, c / q])
        seg = np.tile(np.arange(len(a)), 2)
        inside = np.isfinite(s) & (s > 0.0) & (s < np.diff(knots)[seg])
        roots = knots[seg[inside]] + s[inside]
        angles = np.concatenate([table.phi, roots])
        values = np.concatenate([table.h, table.support(roots)])
        if np.max(values) > np.min(values):
            return (table.boundary_point(angles[np.argmax(values)]),
                    table.boundary_point(angles[np.argmin(values)]))
    elif norm.kind == "inner_product":
        evals, vecs = np.linalg.eigh(norm.Q)
        if evals[0] < evals[1]:
            return tuple(sphere_point(norm, canonicalize_direction(v)) for v in vecs.T)
    elif norm.kind == "lp" and norm.p != 2.0:
        far, near = (diagonal, axis) if norm.p > 2.0 else (axis, diagonal)
        return sphere_point(norm, far), sphere_point(norm, near)
    return sphere_point(norm, axis), sphere_point(norm, other_axis)


def gauss_fixed_point_defect(norm, v):
    """|G(v) - v/|v|| for a sphere point; zero at a true fixed point."""
    return float(np.linalg.norm(gauss_map(norm, v) - v / np.linalg.norm(v)))


def sphere_radius_bounds(norm):
    """Cached (min, max) Euclidean radius of the unit sphere.

    The extreme radii are the extremes of the support function h, taken at
    the fixed points of the normalized Gauss map.
    """
    if "radius_bounds" not in norm._memo:
        radii = [float(np.linalg.norm(v)) for v in find_gauss_fixed_points(norm)]
        norm._memo["radius_bounds"] = (min(radii), max(radii))
    return norm._memo["radius_bounds"]
