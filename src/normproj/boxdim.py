"""Box-counting dimension estimation of clouds and their line shadows.

The box count at scale delta is the number of occupied cells of the grid
delta * Z^n anchored at the origin (no random offsets: determinism beats
estimator variance here).  Scales are powers of the cloud's natural base so
grids align with self-similarity and reference counts are exact.

The fitted slope of log N against log delta stands in for Hausdorff
dimension.  The stand-in is honest but one-sided: box-counting dimension
upper-bounds Hausdorff dimension; every report carries that caveat.

Counting is sort-based.  A cloud's cell keys, or a shadow's coordinates,
are sorted once, and the number of occupied cells is one more than the
number of changes between neighbours.  Because x -> floor(x / delta) is
monotone for delta > 0, one sorted shadow serves every scale.  A sweep over
many directions allocates its shadow, bin and change buffers once and
refills them for each direction: the shadow is written and sorted in place,
so counting a direction allocates no cloud-sized array.  A cloud's cell key
is built one contiguous coordinate column at a time, in buffers shared by
every scale of a ladder.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LowQualityFit, UnderResolved
from . import norms
from .norms import HyperplaneNormal

DIMENSION_CAVEAT = (
    "box-counting estimate; upper-bounds Hausdorff dimension, equal only on "
    "self-similar references"
)
MIN_SCALES = 4
MIN_R2 = 0.98
MAX_SCALES = 12  # longest ladder of admissible_scales


@dataclass(frozen=True)
class DimensionEstimate:
    """Scales, counts and the fitted log-log slope with its quality."""

    scales: np.ndarray
    counts: np.ndarray
    slope: float
    r2: float
    caveat: str = DIMENSION_CAVEAT

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=float)
        c = np.asarray(self.counts, dtype=int)
        s.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "counts", c)


def _distinct_sorted(ordered, steps=None):
    """Distinct values of a sorted 1-D array: its changes, plus one if non-empty.

    ``steps``, if given, is a boolean buffer of length max(len - 1, 0).
    """
    changes = np.not_equal(ordered[1:], ordered[:-1], out=steps)
    return int(ordered.size > 0) + int(np.count_nonzero(changes))


def _bin_counts(coords, scales, bins=None, steps=None):
    """Occupied delta-bins of 1-D coordinates, one count per scale, in order.

    Sorts ``coords`` in place, so callers pass a buffer they own.  One sort
    serves every scale: the bins floor(x / delta) of sorted coordinates are
    sorted too.  The count equals the number of distinct int64 bin indices
    whenever those fit in int64 (|x / delta| < 2**63).  Every scale reuses
    the buffers ``bins`` (like ``coords``) and ``steps`` (boolean, one
    shorter), allocated here unless the caller passes them.
    """
    coords.sort()
    if bins is None:
        bins = np.empty_like(coords)
    if steps is None:
        steps = np.empty(max(coords.size - 1, 0), dtype=bool)
    counts = []
    for delta in scales:
        np.floor(np.divide(coords, float(delta), out=bins), out=bins)
        counts.append(_distinct_sorted(bins, steps))
    return counts


def _occupied_counts(points, scales):
    """Occupied cells of the grid delta * Z^n, one count per scale, in order.

    The shifted integer cell coordinates of each point mix into one int64
    key, one contiguous column at a time; the key is sorted and its changes
    counted.  The column, key and change buffers are allocated once and
    refilled for every scale: fresh cloud-sized arrays per scale would each
    be a new mapping whose pages fault in.
    """
    if points.shape[1] == 1:
        return _bin_counts(points[:, 0].copy(), scales)
    size = len(points)
    cell = np.empty(size)
    col = np.empty(size, dtype=np.int64)
    key = np.empty(size, dtype=np.int64)
    steps = np.empty(max(size - 1, 0), dtype=bool)
    counts = []
    for delta in scales:
        for j in range(points.shape[1]):
            np.floor(np.divide(points[:, j], delta, out=cell), out=cell)
            dest = col if j else key
            np.copyto(dest, cell, casting="unsafe")
            dest -= dest.min()
            if j:
                key *= int(col.max()) + 1
                key += col
        key.sort()
        counts.append(_distinct_sorted(key, steps))
    return counts


def _check_resolved(cloud, scales):
    for delta in scales:
        if float(delta) < 2.0 * cloud.resolution:
            raise UnderResolved(
                f"delta {float(delta):g} below twice the cloud resolution {cloud.resolution:g}"
            )


def box_count(cloud, delta):
    """Number of occupied cells of the grid delta * Z^n."""
    _check_resolved(cloud, [delta])
    return _occupied_counts(cloud.points, [float(delta)])[0]


def admissible_scales(cloud):
    """Powers base^-k admissible under the resolution guard, coarse first."""
    out = []
    for k in range(1, MAX_SCALES + 1):
        delta = float(cloud.base) ** (-k)
        if delta < 2.0 * cloud.resolution:
            break
        out.append(delta)
    return out


def fit_loglog(scales, counts):
    """Least-squares slope of log N against log delta, without refusal."""
    scales = np.asarray(scales, dtype=float)
    counts = np.asarray(counts, dtype=float)
    xs = np.log(scales)
    ys = np.log(counts)
    coeffs = np.polyfit(xs, ys, 1)
    fitted = np.polyval(coeffs, xs)
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DimensionEstimate(scales=scales, counts=counts.astype(int), slope=float(-coeffs[0]), r2=r2)


def estimate_dim(cloud, scales=None):
    """Box-count over a ladder of scales and fit the dimension.

    Refuses with LowQualityFit when the fit explains less than ``MIN_R2`` of
    the variance; refuses with UnderResolved when fewer than four admissible
    scales exist.
    """
    if scales is None:
        scales = admissible_scales(cloud)
    scales = sorted((float(s) for s in scales), reverse=True)
    scales = [s for s in scales if s >= 2.0 * cloud.resolution]
    if len(scales) < MIN_SCALES:
        raise UnderResolved("need at least four admissible scales")
    counts = _occupied_counts(cloud.points, scales)
    est = fit_loglog(scales, counts)
    if est.r2 < MIN_R2:
        raise LowQualityFit(f"log-log fit r2 {est.r2:.4f} below {MIN_R2}")
    return est


# ---------------------------------------------------------------------------
# shadows
# ---------------------------------------------------------------------------

def _shadow_functional(norm, w):
    """Linear functional giving the arc-length coordinate on w-perp of the
    closest-point projection of a point.

    Projecting x along u = G^{-1}(w) and reading the coordinate against the
    canonical unit direction v of w-perp collapses to the single functional
    <x, v - (<u,v>/<u,w>) w>, applied to all points at once.
    """
    if not isinstance(w, HyperplaneNormal):
        w = HyperplaneNormal(w)
    v = w.line_direction()
    if norm.kind == "euclidean":
        return v
    u = norms.inverse_gauss(norm, w.w)
    return v - (float(np.dot(u, v)) / float(np.dot(u, w.w))) * w.w


def projected_counts(norm, cloud, normals, scales):
    """Occupied delta-bins of the cloud's shadow on w-perp, for each w in ``normals``.

    Returns one list per normal, in order, holding one count per scale in
    the order given.  The shadow, bin and change buffers are allocated once
    and refilled for every normal; fresh cloud-sized arrays per direction
    would each be a new mapping whose pages fault in.
    """
    if cloud.dim != 2:
        raise ValueError("projected_counts expects a planar cloud")
    _check_resolved(cloud, scales)
    size = len(cloud.points)
    shadow = np.empty(size)
    bins = np.empty(size)
    steps = np.empty(max(size - 1, 0), dtype=bool)
    out = []
    for w in normals:
        np.matmul(cloud.points, _shadow_functional(norm, w), out=shadow)
        out.append(_bin_counts(shadow, scales, bins, steps))
    return out


def projector_counts(projector, cloud, scales):
    """Occupied delta-bins of the image of a planar rank-one projector.

    Returns one count per scale in ``scales``, in the order given; a
    rank-zero projector maps the cloud to one point, so every count is 1.
    """
    _check_resolved(cloud, scales)
    # arc-length coordinate along the image line read off the matrix (a
    # family built from a map g projects onto g(V), not onto V)
    for probe in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        cand = projector.matrix @ probe
        if np.linalg.norm(cand) > 1e-9:
            direction = norms.canonicalize_direction(cand / np.linalg.norm(cand))
            return _bin_counts(projector.apply(cloud.points) @ direction, scales)
    return [1] * len(scales)


def favard_proxy(cloud, directions, delta, norm=None):
    """Mean shadow length over a direction grid at resolution delta.

    For each angle the hyperplane normal is (cos a, sin a); the shadow
    length is the occupied-bin count times delta.  ``norm`` defaults to the
    Euclidean norm; a strictly convex model reuses its projection family.
    """
    if norm is None:
        norm = norms.euclidean()
    angles = np.asarray(getattr(directions, "angles", directions), dtype=float)
    counts = projected_counts(norm, cloud, [HyperplaneNormal.from_angle(a) for a in angles], [delta])
    return float(np.mean([c[0] * float(delta) for c in counts]))
