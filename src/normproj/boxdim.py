"""Box-counting dimension estimation of clouds and their line shadows.

The box count at scale delta is the number of occupied cells of the grid
delta * Z^n anchored at the origin (no random offsets: determinism beats
estimator variance here).  Scales are powers of the cloud's natural base so
grids align with self-similarity and reference counts are exact.

The fitted slope of log N against log delta stands in for Hausdorff
dimension.  The stand-in is honest but one-sided: box-counting dimension
upper-bounds Hausdorff dimension; every report carries that caveat.

A planar cloud's cells are counted by sorting: its cell keys are sorted
once per scale, and the number of occupied cells is one more than the
number of changes between neighbours.  A key is built one contiguous
coordinate column at a time, in buffers shared by every scale of a ladder.

A line shadow is counted without sorting.  One floor pass at the finest
scale scatters the unsorted coordinates into a table of their bins that
keeps each bin's smallest and largest point.  Because x -> floor(x / delta)
is monotone for delta > 0, the finest count is the number of occupied
bins, and the bins' extremes form one sorted sequence.  Each coarser scale
counts the changes of its bins along the first and last points of the runs
of the next finer scale; ``_bin_counts`` gives the argument why that is
exact while consecutive scales are not nearly equal.  A shadow whose finest
bins span more indices than it has points, or whose scales fail that test,
is sorted instead.  A sweep over many directions allocates its shadow,
table and scratch buffers once and refills them for each direction, so
counting a direction allocates no cloud-sized array.
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
_EPS = 2.0**-53   # unit roundoff of float64


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


def _workspace(size):
    """Scratch for ``_bin_counts`` over ``size`` coordinates: two float
    buffers of twice that length and a slot table of that length.

    ``np.empty`` maps them lazily, so only the slots a count touches become
    resident; a caller that counts many shadows allocates this once and
    may write each shadow into the head of the first buffer.
    """
    return np.empty(2 * size), np.empty(2 * size), np.empty(size)


def _finest_bins(coords, order):
    """First index and number of the finest scale's bins, if the cascade of
    ``_bin_counts`` counts ``coords`` exactly at the ascending ``order``:
    the bins span at most as many indices as there are points, and every
    pair of consecutive scales meets delta' + 4 eps M < delta.  Else None.
    """
    if not (coords.size and order and order[0] > 0.0):
        return None
    lo_x, hi_x = float(coords.min()), float(coords.max())
    first = float(np.floor(lo_x / order[0]))
    span = float(np.floor(hi_x / order[0])) - first + 1.0
    if not span <= coords.size:   # also where an extreme is inf or NaN
        return None
    slack = 4.0 * _EPS * max(-lo_x, hi_x)    # 4 eps M
    if all((prev + slack) * (1.0 + 4.0 * _EPS) < delta for prev, delta in zip(order, order[1:])):
        return first, int(span)
    return None


def _bin_counts(coords, scales, work=None):
    """Occupied delta-bins of 1-D coordinates, one count per scale, in order.

    The count is the number of distinct floor(x / delta), the float
    quotient floored as numpy rounds it.  ``coords`` is clobbered, so
    callers pass a buffer they own; ``work`` is a ``_workspace`` of its
    length, allocated here unless the caller passes it.

    One floor pass at the finest scale delta_f scatters the unsorted
    coordinates into a table with one slot per bin index between the
    smallest and the largest, keeping each occupied slot's smallest and
    largest point (``np.minimum.at``, ``np.maximum.at``).  Why that is exact:

    * floor(fl(x / delta)) is non-decreasing in x, so the finest count is
      the number of occupied slots, and the slot pairs lo_k <= hi_k <
      lo_{k+1} interleave into one sorted sequence of kept points.
    * Each coarser scale delta, in ascending order, is counted over the
      points kept at the next finer scale delta', and keeps for the next
      one only the first and last point of each of its runs.  A point not
      kept lies between two adjacent kept points, and that interval is no
      wider than delta' + 2 eps M, with eps = 2**-53 and M = max |x|: two
      points with one floor at delta' are less than delta' + 2 eps M
      apart, and an interval that joins two runs of delta' joined two
      adjacent kept points of a finer scale already, or holds no point.
    * So if delta' + 4 eps M < delta, the floors at delta of the two kept
      ends differ by at most one, and every hidden point, lying between
      them, takes a value a kept point takes: the count is one more than
      the number of changes along the kept sequence.

    The condition is checked for each consecutive pair of distinct scales
    (with a margin for the rounding of the check itself); a duplicated
    scale reuses its twin's count.  A set of coordinates whose finest bins
    span more indices than it has points, or whose scales fail the
    condition (near-equal scales, or huge |x| / delta), is sorted instead:
    then each scale's bins are sorted too, and their changes are counted
    over all points.  Counts are equal either way; only the cost differs.
    """
    order = sorted({float(d) for d in scales})
    work = _workspace(coords.size) if work is None else work
    finest = _finest_bins(coords, order)
    if finest is None:
        found = _sorted_counts(coords, order, work)
    else:
        found = _cascade_counts(coords, order, *finest, work)
    counts = dict(zip(order, found))
    return [counts[float(d)] for d in scales]


def _cascade_counts(coords, order, first, width, work):
    """Counts at the ascending scales ``order`` by the scatter and cascade of
    ``_bin_counts``; the finest bins are first, ..., first + width - 1."""
    size = coords.size
    a, b, table = work
    floors = b[:size]
    np.floor(np.divide(coords, order[0], out=floors), out=floors)
    np.subtract(floors, first, out=floors)      # exact: 0 <= value < size
    slot = floors.view(np.int64)
    np.copyto(slot, floors, casting="unsafe")  # in place, unbuffered
    ends = table[:width]
    ends.fill(np.inf)
    np.minimum.at(ends, slot, coords)
    lows = b[size:size + width]
    np.copyto(lows, ends)
    ends.fill(-np.inf)
    np.maximum.at(ends, slot, coords)
    # coords and slots are dead: the kept points now alternate between b
    # and a.  The slots are in range, and mode="clip" lets take write its
    # output unbuffered.
    occupied = np.flatnonzero(ends > -np.inf)
    runs = occupied.size
    np.take(lows, occupied, out=a[:runs], mode="clip")
    np.take(ends, occupied, out=a[runs:2 * runs], mode="clip")
    kept, spare, length = b, a, 2 * runs
    kept[0:length:2] = a[:runs]
    kept[1:length:2] = a[runs:length]
    counts = [runs]
    flags = table.view(bool)
    for delta in order[1:]:
        f = spare[:length]
        np.floor(np.divide(kept[:length], delta, out=f), out=f)
        change = np.not_equal(f[1:], f[:-1], out=flags[:length - 1])
        counts.append(1 + int(np.count_nonzero(change)))
        keep = flags[length:2 * length]   # first and last point of each run
        keep[:-1] = change
        keep[-1] = True
        keep[1:] |= change
        keep[0] = True
        runs = int(np.count_nonzero(keep))
        np.compress(keep, kept[:length], out=spare[:runs])
        kept, spare, length = spare, kept, runs
    return counts


def _sorted_counts(coords, order, work):
    """Counts at the scales ``order`` over all of ``coords``, sorted in
    place: the bins of sorted coordinates are sorted too."""
    coords.sort()
    bins, steps = work[1][:coords.size], work[2].view(bool)[:max(coords.size - 1, 0)]
    counts = []
    for delta in order:
        np.floor(np.divide(coords, delta, out=bins), out=bins)
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
    the order given.  The shadow, table and scratch buffers are allocated
    once and refilled for every normal; fresh cloud-sized arrays per
    direction would each be a new mapping whose pages fault in.
    """
    if cloud.dim != 2:
        raise ValueError("projected_counts expects a planar cloud")
    _check_resolved(cloud, scales)
    work = _workspace(len(cloud.points))
    shadow = work[0][:len(cloud.points)]
    out = []
    for w in normals:
        np.matmul(cloud.points, _shadow_functional(norm, w), out=shadow)
        out.append(_bin_counts(shadow, scales, work))
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
