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
  antipodally symmetric sphere, yielding a support_table NormModel that
  carries the curve it was built from.  The arc's table nodes are the
  curve grid itself: the outward normal angle along the arc is
  t + theta(t), and the support values there are closed forms in F and
  theta, so no angle is ever inverted.  One C^1 convex quintic arc (and
  its antipode) in support-function space closes the remaining angles.
  The closing arc is the same for every set: the staircase of a symmetric
  Cantor set integrates to 1/2, so F(1) = 1/8 and theta(1) = arctan(2/7),
  and the arc joins fixed (h, h') data at 1 + theta(1) to (1, 0) at pi.
  The normal directions of the Cantor subset {gamma(t): t in K} fill
  positive angular measure even though K itself has zero length -- the
  property ``image_measure_bounds`` certifies with explicit gap sums, and
  the table's Gauss map reproduces down to the grid level.

Staircase and integral values are exact, so breakpoint values, F(1),
theta(1) and the gap sums carry no floating error.  The curve grid is
filled by one exact left-to-right pass over the sorted level intervals
(``_exact_grid``) on Python integers over one common denominator per
column, and each value is rounded to float once.  The level intervals come
from one integer source, ``CantorSet.level_starts``, and the grid is the
only path from a command into the staircase.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CurveInvariantFailed
from . import norms
from .norms import SupportTable

# No longer a solver here; perfbench/job.py still counts calls to it by
# name, and the next change to the benchmark drops it from ``SOLVERS``.
brentq = None

DESCENT_CAP = 40  # depth of every interval-tree descent and deepest curve level

# On gaps psi' = f'/(4(1-F)) + f*f/(16(1-F)^2) with f' = 1/2, f <= 1 and
# F <= 1/4, so psi' <= 1/6 + 1/9 = 5/18; arctan is 1-Lipschitz, hence the
# tilt angle theta gains at most (5/18) * dt across any union of gaps.
GAP_TILT_RATE_BOUND = 5.0 / 18.0


@dataclass(frozen=True)
class CantorSet:
    """Self-similar Cantor set with ``m`` branches of ratio ``r`` on [0,1]."""

    m: int = 2
    r: Fraction = Fraction(1, 3)

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.m < 2:
            raise ValueError("need at least two branches")
        if not (0 < self.r and self.m * self.r < 1):
            raise ValueError("need 0 < r < 1/m so gaps exist at every level")

    @property
    def dimension(self):
        """Dimension log m / log(1/r) of the self-similar set, in (0, 1)."""
        return math.log(self.m) / math.log(1.0 / float(self.r))

    @property
    def branch_step(self):
        """Offset between consecutive level-1 interval starts."""
        return (1 - self.r) / (self.m - 1)

    # -- level geometry ----------------------------------------------------

    def level_starts(self, k):
        """Integer (starts, length, unit) of the m^k level-k intervals, sorted.

        With r = p/q the unit is U = 2(m-1) q^k: the interval with branch
        digits j_1 ... j_k starts at sum_i j_i 2(q-p) p^(i-1) q^(k-i) / U and
        has length 2(m-1) p^k / U.  Both are even, so every gap midpoint is
        an integer over U as well.  Digits in lexicographic order give the
        intervals from left to right, since each branch ends before the next.
        """
        p, q = self.r.numerator, self.r.denominator
        starts = [0]
        for i in range(1, k + 1):
            width = 2 * (q - p) * p ** (i - 1) * q ** (k - i)
            steps = [j * width for j in range(self.m)]
            starts = [a + s for a in starts for s in steps]
        return starts, 2 * (self.m - 1) * p**k, 2 * (self.m - 1) * q**k


# No command evaluates the staircase at a single point.  This descent,
# ``_f_exact`` and ``f_eval`` stay only because perfbench/job.py traces
# ``f_eval`` by name; the next change to the benchmark drops it from
# ``SPANS``, and these three with it.
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
    for _ in range(DESCENT_CAP):
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


def _f_exact(K, t):
    s, err = _staircase_exact(K, Fraction(t))
    return (s + Fraction(t)) / 2, err / 2


def f_eval(K, t):
    """The stretched parameter f(t) = (staircase(t) + t) / 2."""
    val, _ = _f_exact(K, t)
    return float(val)


# ---------------------------------------------------------------------------
# the curve
# ---------------------------------------------------------------------------

@dataclass
class CounterexampleCurve:
    """Sampled data of the rolled-up convex arc built from a Cantor set.

    The grid holds the level-``level`` breakpoints of K plus all gap
    midpoints of level <= ``level``; ``is_gap_mid`` marks the latter.  The
    t, f and F columns are exact rationals rounded to float once.
    """

    K: CantorSet
    level: int
    t: np.ndarray
    f: np.ndarray
    F: np.ndarray
    psi: np.ndarray
    theta: np.ndarray
    is_gap_mid: np.ndarray
    theta1: float = 0.0
    F1: float = 0.0

    @property
    def normal_angles(self):
        """Polar angle of the outward normal along the arc: t + theta(t)."""
        return self.t + self.theta


def _exact_grid(K, level):
    """Exact columns (t, f, F, is_gap_mid) of the level grid, in one pass.

    The grid holds each level interval's two endpoints and the midpoint of
    the gap after it; every gap of level <= ``level`` lies between two
    consecutive level intervals, so these are all its gap midpoints.  Walking
    the sorted intervals left to right, the staircase equals j/M on the j-th
    interval and (j+1)/M on the gap after it, with M = m^level; a whole
    interval adds length * (base + mass/2) to the running integral of the
    staircase (its restriction is a scaled copy integrating to half the
    mass) and a gap adds a rectangle.

    Everything is a Python int over one denominator per column.  With the
    unit U of ``CantorSet.level_starts``, t = a/U, f = (jU + aM) / (2UM) and
    F = (area U + a^2 M) / (16 U^2 M), where ``area`` is the running
    integral in units of 1/(2UM).  The columns t, f and F are returned as
    (numerators, denominator) pairs; the tests compare their values bit for
    bit with per-point exact descents of the interval tree.
    """
    starts, length, unit = K.level_starts(level)
    count = len(starts)
    ts, stair, areas, gap = [], [], [], []
    area = 0   # integral of the staircase over [0, current point], times 2UM
    for j, a in enumerate(starts):
        b = a + length
        ts += (a, b)
        stair += (j, j + 1)
        areas.append(area)
        area += length * (2 * j + 1)
        areas.append(area)
        gap += (False, False)
        if j + 1 < count:
            c = starts[j + 1]
            mid = (b + c) // 2
            ts.append(mid)
            stair.append(j + 1)
            areas.append(area + 2 * (j + 1) * (mid - b))
            gap.append(True)
            area += 2 * (j + 1) * (c - b)
    f = [s * unit + x * count for s, x in zip(stair, ts)]
    F = [v * unit + x * x * count for v, x in zip(areas, ts)]
    return (ts, unit), (f, 2 * unit * count), (F, 16 * unit * unit * count), gap


def curve_samples(K, level):
    """Build the curve grid at the given resolution level.

    The exact integer columns come from the one-pass ``_exact_grid``; each
    value becomes a float by one int / int true division, which rounds
    correctly, like ``float`` of the equal Fraction.  Verifies on the grid,
    raising CurveInvariantFailed otherwise: f strictly increasing, F
    strictly convex (divided differences increasing), F(1) <= 1/4, and
    injectivity of the tangent sweep (t + pi/2 + theta strictly increasing).
    """
    if level > DESCENT_CAP:
        raise ValueError(f"level exceeds the descent depth {DESCENT_CAP}")
    *columns, gap = _exact_grid(K, level)
    t_arr, f_arr, F_arr = (np.array([n / den for n in nums]) for nums, den in columns)
    psi_arr = f_arr / (4.0 * (1.0 - F_arr))
    theta_arr = np.arctan(psi_arr)
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
        is_gap_mid=is_gap,
        theta1=theta1,
        F1=F1,
    )


def image_measure_bounds(curve, k):
    """Certified (lower, upper) for the angular measure of beta over K.

    The tangent angle B(t) = t + pi/2 + theta(t) is strictly increasing, so
    the image of K misses exactly the open images of the gaps and
      Leb(B(K)) = theta(1) - sum over all gaps of (theta gain on the gap)
    because the t-parts of the gaps telescope to total length 1.  Gaps of
    level <= k are summed exactly; the tail is controlled by the gap tilt
    rate bound times the remaining gap length (m r)^k.

    The gaps of level <= k are those after every m^(level-k)-th interval of
    the curve's grid, whose interval endpoints carry theta, so k may not
    exceed ``curve.level``.  ``math.fsum`` rounds the sum exactly, whatever
    the order of its terms.
    """
    K = curve.K
    if k > curve.level:
        raise ValueError("level exceeds the curve's level")
    ends = curve.theta[~curve.is_gap_mid]
    gains = ends[2::2] - ends[1:-1:2]   # theta gain on each gap of the grid
    every = K.m ** (curve.level - k)
    known = math.fsum(gains[every - 1::every].tolist())
    tail = GAP_TILT_RATE_BOUND * float(K.m * K.r) ** k
    upper = curve.theta1 - known
    lower = upper - tail
    return lower, upper


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


def build_norm(curve):
    """Assemble the full support table and return the resulting norm.

    The arc covers outward-normal angles [0, 1 + theta(1)], with one node
    per curve grid point: at normal angle t + theta(t) the support is
    h = (1 - F) cos(theta) and h' = -(1 - F) sin(theta), so the node's
    boundary point is gamma(t) itself.  The angular gap [1 + theta(1), pi]
    is closed by a quintic with flat end curvature in support-function
    space, where convexity is the single checkable inequality h + h'' > 0;
    its nodes are the interior points of a 4096-point uniform sample.
    Since F(1) = 1/8 and theta(1) = arctan(2/7) for every set, the quintic
    is a constant of the construction.  The second half of the table is
    the antipodal copy, node i + n/2 at angle phi_i + pi.  A table whose
    spline fails ``SupportTable.validate`` (h + h'' at every segment end,
    which the default set's rounded nodes fail from level 15) raises
    NotStrictlyConvex.  The returned model carries ``curve`` as its
    ``curve`` field.
    """
    phi1 = 1.0 + curve.theta1
    h_a = (1.0 - curve.F1) * math.cos(curve.theta1)
    dh_a = -(1.0 - curve.F1) * math.sin(curve.theta1)
    h_b, dh_b = 1.0, 0.0  # antipode of gamma(0) at angle pi
    poly, dpoly = _quintic_hermite(phi1, np.pi, h_a, dh_a, h_b, dh_b)
    glue = np.linspace(phi1, np.pi, 4096)[1:-1]

    radius = 1.0 - curve.F
    phi = np.concatenate([curve.normal_angles, glue])
    h = np.concatenate([radius * np.cos(curve.theta), poly(glue)])
    dh = np.concatenate([-radius * np.sin(curve.theta), dpoly(glue)])
    # pi is a multiple of 2^-48, so on the 2^-50 grid adding it is exact and
    # every knot width of the second half equals its twin's bit for bit
    phi = np.round(phi * 2.0**50) * 2.0**-50

    table = SupportTable(phi=np.concatenate([phi, phi + np.pi]), h=np.tile(h, 2), dh=np.tile(dh, 2))
    model = norms.from_support_table(table)
    model.curve = curve
    return model
