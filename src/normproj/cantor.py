"""Cantor staircase arithmetic and the staircase-built planar norm.

The central objects:

* ``CantorSet``: the self-similar set on [0,1] with ``m`` equally spaced
  branches of ratio ``r`` (m*r < 1).  The natural measure gives each of the
  m^k level-k intervals mass m^-k; its cumulative distribution is the
  staircase function, exact at interval endpoints and constant on gaps.

* ``f(t) = (staircase(t) + t) / 2``: a strictly increasing homeomorphism of
  [0,1] that is affine with slope 1/2 on every gap but stretches the Cantor
  set itself to a set of length exactly 1/2.

* ``F(u) = (1/4) * integral_0^u f``: strictly convex and C^1 with
  F(1) <= 1/4.  Rolling the graph of F around the unit circle,
  gamma(t) = (1 - F(t)) * (cos t, sin t), produces a convex C^1 arc whose
  unit tangent beta(t) has polar angle t + pi/2 + theta(t), where
  theta = arctan(psi) and psi(t) = f(t) / (4 (1 - F(t))).

* ``build_norm``: closes gamma and its antipode into a full strictly convex,
  antipodally symmetric sphere by inserting C^1 convex arcs in
  support-function space, yielding a support_table NormModel that carries
  the curve it was built from.  The outward normal angle along the
  constructed arc is t + theta(t), so the normal directions of the Cantor
  subset {gamma(t): t in K} fill positive angular measure even though K
  itself has zero length -- the property
  ``image_measure_bounds`` certifies with explicit gap sums.

Staircase and integral evaluations run in exact rational arithmetic
(``fractions.Fraction``), so breakpoint values, F(1), theta(1) and the gap
sums carry no floating error.  The curve grid is filled by one exact
left-to-right pass over the sorted level intervals (``_exact_grid``); a
single point is evaluated by an exact descent of the interval tree
(``staircase``, ``f_eval``, ``F_eval``), which also serves as the grid's
oracle; a float twin of the descent is used for bulk table work.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from .errors import CurveInvariantFailed, GlueFailed
from . import norms
from .norms import SupportTable

DESCENT_CAP = 50  # maximum depth of the interval-tree descent

# On gaps psi' = f'/(4(1-F)) + f*f/(16(1-F)^2) with f' = 1/2, f <= 1 and
# F <= 1/4, so psi' <= 1/6 + 1/9 = 5/18; arctan is 1-Lipschitz, hence the
# tilt angle theta gains at most (5/18) * dt across any union of gaps.
GAP_TILT_RATE_BOUND = 5.0 / 18.0


def _to_fraction(x):
    """Exact Fraction from int, str ("1/3", "0.333333333"), Fraction or float."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class CantorSet:
    """Self-similar Cantor set with ``m`` branches of ratio ``r`` on [0,1]."""

    m: int = 2
    r: Fraction = Fraction(1, 3)
    level_cap: int = 40

    def __post_init__(self):
        object.__setattr__(self, "r", _to_fraction(self.r))
        if self.m < 2:
            raise ValueError("need at least two branches")
        if not (0 < self.r and self.m * self.r < 1):
            raise ValueError("need 0 < r < 1/m so gaps exist at every level")

    @property
    def dimension(self):
        """Similarity dimension log m / log(1/r), in (0, 1)."""
        return math.log(self.m) / math.log(1.0 / float(self.r))

    @property
    def branch_step(self):
        """Offset between consecutive level-1 interval starts."""
        return (1 - self.r) / (self.m - 1)

    # -- level geometry ----------------------------------------------------

    def level_intervals(self, k):
        """Exact (starts, length) of the m^k level-k intervals, sorted."""
        starts = [Fraction(0)]
        length = Fraction(1)
        step = self.branch_step
        for _ in range(k):
            starts = [a + j * step * length for a in starts for j in range(self.m)]
            length *= self.r
            starts.sort()
        return starts, length

    def gaps_upto(self, k):
        """Exact (left, right) endpoints of all gaps of level <= k, sorted."""
        gaps = []
        starts = [Fraction(0)]
        length = Fraction(1)
        for _ in range(k):
            step = self.branch_step * length
            sub = length * self.r
            new_starts = []
            for a in starts:
                for j in range(self.m):
                    lo = a + j * step
                    new_starts.append(lo)
                    if j < self.m - 1:
                        gaps.append((lo + sub, a + (j + 1) * step))
            starts = new_starts
            length = sub
        gaps.sort()
        return gaps

    def level_breakpoints(self, k):
        """Sorted exact endpoints of the level-k intervals."""
        starts, length = self.level_intervals(k)
        pts = []
        for a in starts:
            pts.append(a)
            pts.append(a + length)
        return sorted(set(pts))

    def level_midpoints(self, k):
        """Float midpoints of the level-k intervals (cell representatives)."""
        starts, length = self.level_intervals(k)
        half = length / 2
        return np.array([float(a + half) for a in starts])


@dataclass(frozen=True)
class StaircaseValue:
    """A scalar with a certified bracket: value +- error_bound."""

    value: float
    error_bound: float


def _staircase_exact(K, t):
    """Cumulative measure of [0, t] as (Fraction value, Fraction error)."""
    if t <= 0:
        return Fraction(0), Fraction(0)
    if t >= 1:
        return Fraction(1), Fraction(0)
    r = K.r
    step0 = K.branch_step
    value = Fraction(0)
    mass = Fraction(1)
    pos = Fraction(t)
    length = Fraction(1)
    for _ in range(min(DESCENT_CAP, K.level_cap)):
        step = step0 * length
        sub = r * length
        i = int(pos // step)
        if i > K.m - 1:
            i = K.m - 1
        rel = pos - i * step
        if rel >= sub:  # inside the gap after branch i (or its right endpoint)
            return value + (i + 1) * mass / K.m, Fraction(0)
        value += i * mass / K.m
        if rel == 0:  # exact left endpoint of a level interval
            return value, Fraction(0)
        mass /= K.m
        length = sub
        pos = rel
    return value + mass / 2, mass / 2


def _staircase_float(K, t):
    """Float twin of the exact descent, for bulk evaluation."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    r = float(K.r)
    step0 = float(K.branch_step)
    m = K.m
    value = 0.0
    mass = 1.0
    pos = float(t)
    length = 1.0
    for _ in range(min(DESCENT_CAP, K.level_cap)):
        step = step0 * length
        sub = r * length
        i = min(int(pos // step), m - 1)
        rel = pos - i * step
        if rel >= sub:
            return value + (i + 1) * mass / m
        value += i * mass / m
        if rel <= 0.0:
            return value
        mass /= m
        length = sub
        pos = rel
    return value + 0.5 * mass


def staircase(K, t):
    """Normalized measure of [0, t]; exact at breakpoints and on gaps."""
    if not 0.0 <= float(t) <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    val, err = _staircase_exact(K, _to_fraction(t))
    return StaircaseValue(value=float(val), error_bound=float(err))


def _integral_staircase_exact(K, u):
    """Exact bracket of integral_0^u staircase as (value, error) Fractions.

    The integral over a complete level interval uses self-similarity (the
    restricted staircase integrates to half the interval's mass times its
    length above its base value); gap pieces are rectangles.  Only a partial
    deepest interval contributes a bracketed remainder.
    """
    if u <= 0:
        return Fraction(0), Fraction(0)
    if u >= 1:
        return Fraction(1, 2), Fraction(0)
    r = K.r
    m = K.m
    step0 = K.branch_step
    total = Fraction(0)
    base = Fraction(0)   # staircase value at the left end of current interval
    mass = Fraction(1)   # measure carried by the current interval
    length = Fraction(1)
    pos = Fraction(u)
    for _ in range(min(DESCENT_CAP, K.level_cap)):
        step = step0 * length
        sub = r * length
        glen = step - sub
        i = int(pos // step)
        if i > m - 1:
            i = m - 1
        # complete sub-intervals and gaps strictly left of branch i
        for j in range(i):
            total += sub * (base + (Fraction(2 * j + 1, 2)) * mass / m)
            total += glen * (base + (j + 1) * mass / m)
        rel = pos - i * step
        if rel >= sub:  # ends inside gap i
            total += sub * (base + (Fraction(2 * i + 1, 2)) * mass / m)
            total += (rel - sub) * (base + (i + 1) * mass / m)
            return total, Fraction(0)
        if rel == 0:
            return total, Fraction(0)
        base += i * mass / m
        mass /= m
        length = sub
        pos = rel
    lo = total + pos * base
    hi = total + pos * (base + mass)
    return (lo + hi) / 2, (hi - lo) / 2


def _f_exact(K, t):
    s, err = _staircase_exact(K, _to_fraction(t))
    return (s + _to_fraction(t)) / 2, err / 2


def _f_float(K, t):
    return 0.5 * (_staircase_float(K, t) + t)


def f_eval(K, t):
    """The stretched parameter f(t) = (staircase(t) + t) / 2."""
    val, _ = _f_exact(K, t)
    return float(val)


def _F_exact(K, u):
    u = _to_fraction(u)
    integ, err = _integral_staircase_exact(K, u)
    return (integ + u * u / 2) / 8, err / 8


def _F_float(K, u):
    # float twin of _integral_staircase_exact folded into F
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 0.125
    r = float(K.r)
    m = K.m
    step0 = float(K.branch_step)
    total = 0.0
    base = 0.0
    mass = 1.0
    length = 1.0
    pos = float(u)
    for _ in range(min(DESCENT_CAP, K.level_cap)):
        step = step0 * length
        sub = r * length
        glen = step - sub
        i = min(int(pos // step), m - 1)
        for j in range(i):
            total += sub * (base + (j + 0.5) * mass / m)
            total += glen * (base + (j + 1) * mass / m)
        rel = pos - i * step
        if rel >= sub:
            total += sub * (base + (i + 0.5) * mass / m)
            total += (rel - sub) * (base + (i + 1) * mass / m)
            break
        if rel <= 0.0:
            break
        base += i * mass / m
        mass /= m
        length = sub
        pos = rel
    else:
        total += pos * (base + 0.5 * mass)
    return (total + 0.5 * u * u) / 8.0


def F_eval(K, u):
    """Quarter integral of f with a certified error bracket."""
    if not 0.0 <= float(u) <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    val, err = _F_exact(K, u)
    return StaircaseValue(value=float(val), error_bound=float(err))


def _psi_from(f_val, F_val):
    return f_val / (4.0 * (1.0 - F_val))


def _theta_float(K, t):
    return math.atan(_psi_from(_f_float(K, t), _F_float(K, t)))


# ---------------------------------------------------------------------------
# the curve
# ---------------------------------------------------------------------------

@dataclass
class CounterexampleCurve:
    """Sampled data of the rolled-up convex arc built from a Cantor set.

    The grid holds the level-``level`` breakpoints of K plus all gap
    midpoints of level <= ``level``; ``is_gap_mid`` marks the latter.  All
    columns are exact-to-float conversions of rational arithmetic.
    """

    K: CantorSet
    level: int
    t: np.ndarray
    f: np.ndarray
    F: np.ndarray
    psi: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray   # (N, 2) points of the arc
    beta: np.ndarray    # (N, 2) unit tangents
    is_gap_mid: np.ndarray
    theta1: float = 0.0
    F1: float = 0.0

    @property
    def tangent_angles(self):
        """Polar angle of beta: t + pi/2 + theta(t)."""
        return self.t + 0.5 * np.pi + self.theta

    @property
    def normal_angles(self):
        """Polar angle of the outward normal along the arc: t + theta(t)."""
        return self.t + self.theta


def _exact_grid(K, level):
    """Exact columns (t, f, F, is_gap_mid) of the level grid, in one pass.

    The grid holds each level interval's two endpoints and the midpoint of
    the gap after it; every gap of level <= ``level`` lies between two
    consecutive level intervals, so these are all its gap midpoints.  Walking
    the sorted intervals left to right, the staircase equals j/m^k on the
    j-th interval and (j+1)/m^k on the gap after it; a whole interval adds
    length * (base + mass/2) to the running integral of the staircase (its
    restriction is a scaled copy integrating to half the mass) and a gap
    adds a rectangle.  All values are Fractions, equal to what the
    per-point descents ``_f_exact`` and ``_F_exact`` return.
    """
    starts, length = K.level_intervals(level)
    mass = Fraction(1, len(starts))
    half_area = length * mass / 2
    ts, fs, Fs, gap = [], [], [], []
    integral = Fraction(0)   # integral of the staircase over [0, current point]

    def emit(t, s, area, is_gap):
        ts.append(t)
        fs.append((s + t) / 2)
        Fs.append((area + t * t / 2) / 8)
        gap.append(is_gap)

    for j, a in enumerate(starts):
        base = j * mass
        emit(a, base, integral, False)
        integral += length * base + half_area
        b = a + length
        base += mass
        emit(b, base, integral, False)
        if j + 1 < len(starts):
            mid = (b + starts[j + 1]) / 2
            emit(mid, base, integral + (mid - b) * base, True)
            integral += (starts[j + 1] - b) * base
    return ts, fs, Fs, gap


def curve_samples(K, level):
    """Build the curve grid at the given resolution level.

    The exact columns come from the one-pass ``_exact_grid``, each
    converted to float once.  Verifies on the grid, raising
    CurveInvariantFailed otherwise: f strictly increasing, F strictly convex
    (divided differences increasing), F(1) <= 1/4, and injectivity of the
    tangent sweep (t + pi/2 + theta strictly increasing).
    """
    if level > K.level_cap:
        raise ValueError("level exceeds the set's level cap")
    ts, fs, Fs, gap = _exact_grid(K, level)
    t_arr = np.array([float(t) for t in ts])
    f_arr = np.array([float(v) for v in fs])
    F_arr = np.array([float(v) for v in Fs])
    psi_arr = f_arr / (4.0 * (1.0 - F_arr))
    theta_arr = np.arctan(psi_arr)
    gamma_arr = (1.0 - F_arr)[:, None] * norms.unit_vector(t_arr)
    beta_arr = norms.unit_vector(t_arr + 0.5 * np.pi + theta_arr)
    is_gap = np.array(gap)

    F1 = float(F_arr[-1])  # the grid ends at t = 1
    theta1 = math.atan(1.0 / (4.0 * (1.0 - F1)))

    if not np.all(np.diff(f_arr) > 0.0):
        raise CurveInvariantFailed("f must be strictly increasing")
    if not F1 <= 0.25 + 1e-15:
        raise CurveInvariantFailed("F(1) must stay below 1/4")
    slopes = np.diff(F_arr) / np.diff(t_arr)
    if not np.all(np.diff(slopes) > 0.0):
        raise CurveInvariantFailed("F must be strictly convex")
    if not np.all(np.diff(t_arr + 0.5 * np.pi + theta_arr) > 0.0):
        raise CurveInvariantFailed("tangent sweep must be injective")

    return CounterexampleCurve(
        K=K,
        level=level,
        t=t_arr,
        f=f_arr,
        F=F_arr,
        psi=psi_arr,
        theta=theta_arr,
        gamma=gamma_arr,
        beta=beta_arr,
        is_gap_mid=is_gap,
        theta1=theta1,
        F1=F1,
    )


def gauss_on_gamma(curve, t):
    """Outward unit normal of the assembled sphere at gamma(t).

    The unit tangent at gamma(t) has angle t + pi/2 + theta(t); a quarter
    turn maps it to the normal.  The quarter turn that points *outward*
    (<gamma, G> > 0, as every norm's Gauss map must) is the clockwise one
    for this counterclockwise arc, giving normal angle t + theta(t).
    """
    t = float(t)
    theta = _theta_float(curve.K, t)
    g = norms.unit_vector(t + theta)
    gamma_t = (1.0 - _F_float(curve.K, t)) * norms.unit_vector(t)
    if not float(np.dot(gamma_t, g)) > 0.0:
        raise CurveInvariantFailed(f"normal at t = {t} does not point outward")
    return g


def image_measure_bounds(curve, k):
    """Certified (lower, upper) for the angular measure of beta over K.

    The tangent angle B(t) = t + pi/2 + theta(t) is strictly increasing, so
    the image of K misses exactly the open images of the gaps and
      Leb(B(K)) = theta(1) - sum over all gaps of (theta gain on the gap)
    because the t-parts of the gaps telescope to total length 1.  Gaps of
    level <= k are summed exactly; the tail is controlled by the gap tilt
    rate bound times the remaining gap length (m r)^k.
    """
    K = curve.K
    if k > K.level_cap:
        raise ValueError("level exceeds the set's level cap")

    def theta_at(t_exact):
        t = float(t_exact)
        if k <= curve.level:
            # gap endpoints of level <= k are grid breakpoints: look them up
            j = int(np.searchsorted(curve.t, t))
            if j < len(curve.t) and curve.t[j] == t:
                return float(curve.theta[j])
        return math.atan(
            float(_f_exact(K, t_exact)[0]) / (4.0 * (1.0 - float(_F_exact(K, t_exact)[0])))
        )

    gap_sum = [theta_at(hi) - theta_at(lo) for lo, hi in K.gaps_upto(k)]
    known = math.fsum(gap_sum)
    tail = GAP_TILT_RATE_BOUND * float(K.m * K.r) ** k
    upper = curve.theta1 - known
    lower = upper - tail
    return lower, upper


def f_image_bracket(K, k):
    """Bracket for the length of f(K) from the level-k gap structure.

    Every gap maps to an interval of exactly half its length, and the gaps
    seen up to level k leave total length (m r)^k unaccounted, so the image
    length lies in [1/2, (1 + (m r)^k) / 2].
    """
    covered = float(K.m * K.r) ** k
    return 0.5, 0.5 * (1.0 + covered)


# ---------------------------------------------------------------------------
# assembling the full sphere
# ---------------------------------------------------------------------------

def _quintic_hermite(x0, x1, y0, dy0, y1, dy1):
    """Quintic on [x0, x1] matching (y, y') at both ends and y'' = 0 there.

    The two spare degrees of freedom of a quintic through (h, h') data are
    spent on flat curvature deviation at the ends, which keeps the joint
    with the analytic arcs gentle.  Returns (poly, dpoly) as callables.
    """
    length = x1 - x0
    a0, a1, a2 = y0, dy0 * length, 0.0
    rhs1 = y1 - a0 - a1
    rhs2 = dy1 * length - a1
    # a3 + a4 + a5 = rhs1 ; 3a3 + 4a4 + 5a5 = rhs2 ; 6a3 + 12a4 + 20a5 = 0
    mat = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
    a3, a4, a5 = np.linalg.solve(mat, np.array([rhs1, rhs2, 0.0]))
    coeffs = np.array([a0, a1, a2, a3, a4, a5])

    def poly(x):
        s = (np.asarray(x, dtype=float) - x0) / length
        return sum(c * s**i for i, c in enumerate(coeffs))

    def dpoly(x):
        s = (np.asarray(x, dtype=float) - x0) / length
        return sum(i * c * s ** (i - 1) for i, c in enumerate(coeffs) if i > 0) / length

    return poly, dpoly


def _cubic_hermite(x0, x1, y0, dy0, y1, dy1):
    """Plain cubic Hermite fallback for the closing arc."""
    length = x1 - x0
    a0, a1 = y0, dy0 * length
    a2 = 3.0 * (y1 - y0) - length * (2.0 * dy0 + dy1)
    a3 = -2.0 * (y1 - y0) + length * (dy0 + dy1)
    coeffs = np.array([a0, a1, a2, a3])

    def poly(x):
        s = (np.asarray(x, dtype=float) - x0) / length
        return sum(c * s**i for i, c in enumerate(coeffs))

    def dpoly(x):
        s = (np.asarray(x, dtype=float) - x0) / length
        return sum(i * c * s ** (i - 1) for i, c in enumerate(coeffs) if i > 0) / length

    return poly, dpoly


def _t_of_normal_angle(curve, phi_targets):
    """Invert phi = t + theta(t) on [0, 1] for each target angle."""
    K = curve.K
    grid_phi = curve.normal_angles
    grid_t = curve.t
    out = np.empty_like(phi_targets)
    for idx, phi in enumerate(phi_targets):
        j = int(np.searchsorted(grid_phi, phi))
        if j == 0:
            out[idx] = 0.0
            continue
        lo = grid_t[j - 1]
        hi = grid_t[j] if j < len(grid_t) else 1.0

        def resid(t):
            return t + _theta_float(K, t) - phi

        r_lo, r_hi = resid(lo), resid(hi)
        if r_lo >= 0.0:
            out[idx] = lo
        elif r_hi <= 0.0:
            out[idx] = hi
        else:
            out[idx] = brentq(resid, lo, hi, xtol=1e-14)
    return out


def build_norm(curve, table_size=4096):
    """Assemble the full support table and return the resulting norm.

    The arc covers outward-normal angles [0, 1 + theta(1)]; its antipode
    covers the range shifted by pi.  The two remaining angular gaps are
    closed by convex C^1 interpolants in support-function space, where
    convexity is the single checkable inequality h + h'' > 0.  A quintic
    with flat end curvature is tried first, then a cubic; if both violate
    the discrete convexity proxy the assembly fails with GlueFailed.  The
    returned model carries ``curve`` as its ``curve`` field.
    """
    if table_size % 2 != 0:
        raise ValueError("table size must be even")
    K = curve.K
    phi1 = 1.0 + curve.theta1
    phi_grid = 2.0 * np.pi * np.arange(table_size) / table_size
    half = table_size // 2

    h = np.empty(table_size)
    dh = np.empty(table_size)
    prov = np.empty(table_size, dtype=object)

    arc_mask = phi_grid[:half] <= phi1
    arc_angles = phi_grid[:half][arc_mask]
    glue_angles = phi_grid[:half][~arc_mask]

    t_vals = _t_of_normal_angle(curve, arc_angles)
    f_vals = np.array([_f_float(K, t) for t in t_vals])
    F_vals = np.array([_F_float(K, t) for t in t_vals])
    theta_vals = np.arctan(f_vals / (4.0 * (1.0 - F_vals)))
    # support identities along the arc: h = (1-F) cos(theta), h' = -(1-F) sin(theta)
    h_arc = (1.0 - F_vals) * np.cos(theta_vals)
    dh_arc = -(1.0 - F_vals) * np.sin(theta_vals)

    h_a = (1.0 - curve.F1) * math.cos(curve.theta1)
    dh_a = -(1.0 - curve.F1) * math.sin(curve.theta1)
    h_b, dh_b = 1.0, 0.0  # antipode of gamma(0) at angle pi

    chosen = None
    for maker in (_quintic_hermite, _cubic_hermite):
        poly, dpoly = maker(phi1, np.pi, h_a, dh_a, h_b, dh_b)
        dense = np.linspace(phi1, np.pi, 4096)
        vals = np.asarray(poly(dense))
        step = dense[1] - dense[0]
        second = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / step**2
        if np.min(vals[1:-1] + second) > 0.0:
            chosen = (poly, dpoly)
            break
    if chosen is None:
        raise GlueFailed("no convex closing arc found for the support gap")
    poly, dpoly = chosen

    n_arc = len(arc_angles)
    h[:half][arc_mask] = h_arc
    dh[:half][arc_mask] = dh_arc
    prov[: len(arc_angles)] = "gamma"
    h[:half][~arc_mask] = poly(glue_angles)
    dh[:half][~arc_mask] = dpoly(glue_angles)
    prov[n_arc:half] = "glue"

    h[half:] = h[:half]
    dh[half:] = dh[:half]
    prov[half : half + n_arc] = "gamma_opp"
    prov[half + n_arc :] = "glue_opp"

    joints = (
        (phi1, dh_a, float(dpoly(phi1))),
        (float(np.pi), float(dpoly(np.pi)), dh_b),
        (phi1 + np.pi, dh_a, float(dpoly(phi1))),
        (2.0 * np.pi, float(dpoly(np.pi)), dh_b),
    )
    table = SupportTable(phi=phi_grid, h=h, dh=dh, provenance=prov, joints=joints)
    slack = table.convexity_slack()
    if slack <= 0.0:
        raise GlueFailed(f"assembled table fails convexity (slack {slack:.3e})")
    model = norms.from_support_table(table)
    model.curve = curve
    return model

